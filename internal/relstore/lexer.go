package relstore

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , . * ?
	tokOp     // = <> != < <= > >=
)

// keywords recognized by the dialect. Identifiers matching these
// (case-insensitively) lex as tokKeyword with upper-cased text. DROP,
// INSERT, INTO, VALUES, UPDATE, SET and DELETE stay reserved although
// no statement runs them: a SELECT naming a column after one still
// fails to parse, and ParseSelect recognizes the statement it refuses.
var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "INDEX": true, "ON": true, "DROP": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"SELECT": true, "DISTINCT": true, "FROM": true, "JOIN": true, "INNER": true,
	"WHERE": true, "GROUP": true, "BY": true, "ORDER": true, "ASC": true,
	"DESC": true, "LIMIT": true, "AS": true, "HAVING": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "LIKE": true,
	"NULL": true, "TRUE": true, "FALSE": true,
	"PRIMARY": true, "KEY": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// token is one lexeme with its position (byte offset) for error messages.
type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of statement"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex tokenizes a statement. Strings use single quotes with ” escaping,
// per standard SQL.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(input) && input[i+1] == '-':
			// Line comment.
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(input) {
				if input[i] == '\'' {
					if i+1 < len(input) && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("relstore: unterminated string at offset %d", start)
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(input) && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			seenDot := false
			for i < len(input) {
				d := input[i]
				if d == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				if d < '0' || d > '9' {
					break
				}
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], pos: start})
		case isIdentStart(c):
			start := i
			for i < len(input) && isIdentByte(input[i]) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: strings.ToLower(word), pos: start})
			}
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '*' || c == '?' || c == ';':
			if c == ';' {
				i++ // statement terminator, ignored
				continue
			}
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		case c == '=':
			toks = append(toks, token{kind: tokOp, text: "=", pos: i})
			i++
		case c == '<':
			switch {
			case i+1 < len(input) && input[i+1] == '=':
				toks = append(toks, token{kind: tokOp, text: "<=", pos: i})
				i += 2
			case i+1 < len(input) && input[i+1] == '>':
				toks = append(toks, token{kind: tokOp, text: "<>", pos: i})
				i += 2
			default:
				toks = append(toks, token{kind: tokOp, text: "<", pos: i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{kind: tokOp, text: ">=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokOp, text: ">", pos: i})
				i++
			}
		case c == '!':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{kind: tokOp, text: "<>", pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("relstore: stray '!' at offset %d", i)
			}
		default:
			return nil, fmt.Errorf("relstore: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}

// Identifiers are ASCII, [A-Za-z_][A-Za-z0-9_]*: case folding then
// maps every byte to itself or its ASCII twin, so a statement's
// normalized shape lexes to the same tokens as the statement.
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || '0' <= c && c <= '9'
}
