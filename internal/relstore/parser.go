package relstore

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrNotSelect marks a statement ParseSelect refuses because it begins
// with CREATE, INSERT, UPDATE, DELETE or DROP. Query, Prepare and every
// front end that serves SQL refuse through it, so the rule lives here.
var ErrNotSelect = errors.New("relstore: not a SELECT statement")

// refusedKeywords are the leading keywords ParseSelect refuses with
// ErrNotSelect, whatever follows them.
var refusedKeywords = map[string]bool{
	"CREATE": true, "INSERT": true, "UPDATE": true, "DELETE": true, "DROP": true,
}

// ParseSelect parses one SELECT statement. A statement that begins
// with a refused keyword fails with an error wrapping ErrNotSelect,
// even when the rest of it is malformed; any other defect is a lex or
// parse error.
func ParseSelect(sql string) (*SelectStmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	if t := toks[0]; t.kind == tokKeyword && refusedKeywords[t.text] {
		return nil, fmt.Errorf("%w: %s", ErrNotSelect, t.text)
	}
	stmt, err := parseTokens(toks)
	if err != nil {
		return nil, err
	}
	return stmt.(*SelectStmt), nil // CREATE, the one other form, was refused
}

// parse parses one statement of the dialect: CREATE TABLE, CREATE
// INDEX or SELECT.
func parse(input string) (statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

func parseTokens(toks []token) (statement, error) {
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input starting at %s", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
	// params counts `?` placeholders seen so far; each gets the next
	// ordinal position.
	params int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, when text
// is non-empty).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token when it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a token or fails with a located error.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{
			tokIdent: "identifier", tokNumber: "number", tokString: "string",
		}[kind]
	}
	return token{}, p.errorf("expected %s, found %s", want, p.peek())
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("relstore: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStatement() (statement, error) {
	switch {
	case p.accept(tokKeyword, "CREATE"):
		switch {
		case p.accept(tokKeyword, "TABLE"):
			return p.parseCreateTable()
		case p.accept(tokKeyword, "INDEX"):
			return p.parseCreateIndex()
		default:
			return nil, p.errorf("expected TABLE or INDEX after CREATE")
		}
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	default:
		return nil, p.errorf("expected a statement, found %s", p.peek())
	}
}

func (p *parser) parseCreateTable() (statement, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	stmt := &createTableStmt{Table: name.text}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		typeTok := p.next()
		if typeTok.kind != tokIdent && typeTok.kind != tokKeyword {
			return nil, p.errorf("expected column type, found %s", typeTok)
		}
		kind, err := ParseKind(typeTok.text)
		if err != nil {
			return nil, err
		}
		def := ColumnDef{Name: col.text, Kind: kind}
		if p.accept(tokKeyword, "PRIMARY") {
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			def.PrimaryKey = true
		}
		stmt.Columns = append(stmt.Columns, def)
		if p.accept(tokSymbol, ",") {
			continue
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		break
	}
	return stmt, nil
}

func (p *parser) parseCreateIndex() (statement, error) {
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	col, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &createIndexStmt{Table: table.text, Column: col.text}, nil
}

func (p *parser) parseSelect() (statement, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.accept(tokKeyword, "DISTINCT")
	for {
		if p.accept(tokSymbol, "*") {
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				alias, err := p.expect(tokIdent, "")
				if err != nil {
					return nil, err
				}
				item.Alias = alias.text
			}
			stmt.Items = append(stmt.Items, item)
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for {
		p.accept(tokKeyword, "INNER") // INNER is optional noise before JOIN
		if !p.accept(tokKeyword, "JOIN") {
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: ref, On: on})
	}
	if p.accept(tokKeyword, "WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		if stmt.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				key.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		num, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(num.text)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", num.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name.text}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.expect(tokIdent, "")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias.text
	} else if p.at(tokIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar, lowest precedence first:
//
//	expr    := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmpExpr
//	cmpExpr := primary ((= | <> | < | <= | > | >=) primary
//	          | [NOT] IN (expr, ...) | [NOT] LIKE 'pat')?
//	primary := literal | call | columnRef | ( expr )
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokOp {
		op := p.next().text
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, Left: left, Right: right}, nil
	}
	negate := false
	if p.at(tokKeyword, "NOT") && p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "LIKE") {
		p.next()
		negate = true
	}
	switch {
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		in := &InExpr{Target: left, Negate: negate}
		for {
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.accept(tokKeyword, "LIKE"):
		pat, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Target: left, Pattern: pat.text, Negate: negate}, nil
	case negate:
		return nil, p.errorf("NOT must be followed by IN or LIKE here")
	}
	return left, nil
}

var aggregateFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &LiteralExpr{Value: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &LiteralExpr{Value: Int(n)}, nil
	case t.kind == tokString:
		p.next()
		return &LiteralExpr{Value: Text(t.text)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return &LiteralExpr{Value: Null()}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return &LiteralExpr{Value: Bool(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return &LiteralExpr{Value: Bool(false)}, nil
	case t.kind == tokKeyword && aggregateFuncs[t.text]:
		fn := p.next().text
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		call := &CallExpr{Func: fn}
		if p.accept(tokSymbol, "*") {
			if fn != "COUNT" {
				return nil, p.errorf("%s(*) is not valid", fn)
			}
			call.Star = true
		} else {
			call.Distinct = p.accept(tokKeyword, "DISTINCT")
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Arg = arg
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return call, nil
	case t.kind == tokIdent:
		p.next()
		if p.accept(tokSymbol, ".") {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return &ColumnExpr{Table: t.text, Column: col.text}, nil
		}
		return &ColumnExpr{Column: t.text}, nil
	case t.kind == tokSymbol && t.text == "?":
		p.next()
		e := &PlaceholderExpr{Index: p.params}
		p.params++
		return e, nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errorf("expected expression, found %s", t)
	}
}
