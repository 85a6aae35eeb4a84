package relstore

import (
	"sync/atomic"
	"unicode/utf8"
)

// SQL LIKE support. Patterns compile once (per parsed statement, cached
// on the LikeExpr) into a small wildcard program; matching then walks
// the subject with zero allocations. `%` matches any run of characters
// and `_` matches exactly one character — one rune, not one byte, so
// multibyte UTF-8 text matches the way SQL users expect.

type likeOpKind byte

const (
	likeLit likeOpKind = iota // one literal rune
	likeOne                   // _
	likeAny                   // %
)

type likeOp struct {
	kind likeOpKind
	lit  rune
}

// likeProg is a compiled LIKE pattern.
type likeProg struct {
	ops []likeOp
}

// likeCompiles counts pattern compilations, so tests can assert that
// binding a prepared statement shares one program instead of
// recompiling per bound copy.
var likeCompiles atomic.Uint64

// compileLike translates a pattern into its program. Adjacent `%`
// wildcards collapse: they match the same strings and would only add
// backtracking states.
func compileLike(pattern string) *likeProg {
	likeCompiles.Add(1)
	ops := make([]likeOp, 0, utf8.RuneCountInString(pattern))
	for _, r := range pattern {
		switch r {
		case '%':
			if n := len(ops); n > 0 && ops[n-1].kind == likeAny {
				continue
			}
			ops = append(ops, likeOp{kind: likeAny})
		case '_':
			ops = append(ops, likeOp{kind: likeOne})
		default:
			ops = append(ops, likeOp{kind: likeLit, lit: r})
		}
	}
	return &likeProg{ops: ops}
}

// match reports whether s matches the pattern. Greedy `%` matching with
// backtracking to the most recent wildcard: O(len(s) * len(ops)) worst
// case, no allocation, and case-sensitive like the rest of the dialect.
func (p *likeProg) match(s string) bool {
	si, pi := 0, 0
	starPi, starSi := -1, 0
	for si < len(s) {
		if pi < len(p.ops) {
			switch op := p.ops[pi]; op.kind {
			case likeAny:
				starPi, starSi = pi, si
				pi++
				continue
			case likeOne:
				_, w := utf8.DecodeRuneInString(s[si:])
				si += w
				pi++
				continue
			default:
				r, w := utf8.DecodeRuneInString(s[si:])
				if r == op.lit {
					si += w
					pi++
					continue
				}
			}
		}
		if starPi < 0 {
			return false
		}
		// Backtrack: the most recent % absorbs one more rune.
		_, w := utf8.DecodeRuneInString(s[starSi:])
		starSi += w
		si, pi = starSi, starPi+1
	}
	// Trailing % ops match the empty remainder.
	for pi < len(p.ops) && p.ops[pi].kind == likeAny {
		pi++
	}
	return pi == len(p.ops)
}
