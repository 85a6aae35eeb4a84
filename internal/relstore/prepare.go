package relstore

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Prepared statements and the normalized-shape plan cache.
//
// Query and Prepare share one compilation path: the SQL text normalizes
// into a *shape* — literals replaced by `?` placeholders, whitespace
// and comments canonicalized — and the shape's parsed AST plus compiled
// plan live once in the database's shared LRU plan cache. Execution
// merges the extracted literals with any caller-supplied `?` arguments
// and binds them onto copy-on-write clones of the cached statement and
// plan, so one compilation serves every literal variant of the same
// shape, concurrently, with index narrowing intact (bound placeholders
// become LiteralExprs before the scan accelerators look for them).

// argSlot describes one placeholder position of a normalized shape:
// either a literal extracted from the original text or a user-supplied
// `?` to be filled from the call's arguments.
type argSlot struct {
	lit  Value
	user bool
}

// compiledQuery is one plan-cache entry: the parsed statement and
// compiled plan of a normalized shape. The cached trees are never
// mutated after publication. gen is the schema generation the plan was
// compiled against.
type compiledQuery struct {
	shape string
	sel   *SelectStmt
	plan  *selectPlan
	gen   uint64
}

// normalizeSQL lexes a statement and canonicalizes it into its shape:
// number and string literals become `?` placeholders (recorded as typed
// slots), existing `?` markers are recorded as user slots, and the
// remaining tokens re-join space-separated. The token after LIMIT or
// LIKE stays literal — the grammar wants a raw number or pattern there,
// not an expression. The shape doubles as the cache key and as
// parseable SQL: the token stream of the shape is isomorphic to the
// original's, so it parses (or fails) exactly like the original.
func normalizeSQL(sql string) (string, []argSlot, error) {
	toks, err := lex(sql)
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	var slots []argSlot
	keepNext := false
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		keep := keepNext
		keepNext = t.kind == tokKeyword && (t.text == "LIMIT" || t.text == "LIKE")
		switch t.kind {
		case tokNumber:
			v, ok := numberValue(t.text)
			if keep || !ok {
				// Raw LIMIT operand, or a malformed number kept verbatim
				// so ParseSelect reports the same error the original would.
				sb.WriteString(t.text)
				continue
			}
			sb.WriteByte('?')
			slots = append(slots, argSlot{lit: v})
		case tokString:
			if keep {
				sb.WriteByte('\'')
				sb.WriteString(strings.ReplaceAll(t.text, "'", "''"))
				sb.WriteByte('\'')
				continue
			}
			sb.WriteByte('?')
			slots = append(slots, argSlot{lit: Text(t.text)})
		default:
			sb.WriteString(t.text)
			if t.kind == tokSymbol && t.text == "?" {
				slots = append(slots, argSlot{user: true})
			}
		}
	}
	return sb.String(), slots, nil
}

// numberValue types a number token exactly like parsePrimary: a dot
// makes a float, anything else an int64.
func numberValue(text string) (Value, bool) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, false
		}
		return Float(f), true
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Value{}, false
	}
	return Int(n), true
}

// countUserSlots reports how many `?` arguments the caller must supply.
func countUserSlots(slots []argSlot) int {
	n := 0
	for _, s := range slots {
		if s.user {
			n++
		}
	}
	return n
}

// mergeSlots interleaves the extracted literals with the caller's
// arguments in slot order, producing the full positional argument list
// of the shape. The caller has already checked the argument count.
func mergeSlots(slots []argSlot, args []Value) []Value {
	if len(slots) == 0 {
		return nil
	}
	full := make([]Value, len(slots))
	ai := 0
	for i, s := range slots {
		if s.user {
			full[i] = args[ai]
			ai++
		} else {
			full[i] = s.lit
		}
	}
	return full
}

// compiled returns the cached compilation of a shape, compiling and
// publishing it on a miss. Callers must hold db.mu (read or write): the
// lock excludes DDL, so a fresh compilation is always of the current
// schema generation. Parse and plan errors are returned uncached.
func (db *DB) compiled(shape string) (*compiledQuery, error) {
	gen := db.schemaGen.Load()
	if c := db.plans.get(shape, gen); c != nil {
		return c, nil
	}
	sel, err := ParseSelect(shape)
	if err != nil {
		return nil, err
	}
	plan, err := db.planSelect(sel)
	if err != nil {
		return nil, err
	}
	c := &compiledQuery{shape: shape, sel: sel, plan: plan, gen: gen}
	db.plans.put(c)
	return c, nil
}

// execCompiled executes a cached compilation with the full (merged)
// argument list. Both the statement and the plan bind copy-on-write, so
// the cached trees stay shareable. Callers hold db.mu.RLock.
func (db *DB) execCompiled(c *compiledQuery, args []Value) (*Result, error) {
	sel, err := bindSelect(c.sel, args)
	if err != nil {
		return nil, err
	}
	return db.execPlanned(sel, bindPlanExprs(c.plan, args))
}

// bindPlanExprs substitutes placeholders throughout a plan's expression
// slices, copy-on-write like bindSelect: untouched slices (and the
// whole plan, when there are no arguments) are shared with the cache.
func bindPlanExprs(p *selectPlan, args []Value) *selectPlan {
	if len(args) == 0 {
		return p
	}
	c := *p
	c.basePreds = bindExprSlice(p.basePreds, args)
	c.residual = bindExprSlice(p.residual, args)
	c.joins = append([]joinPlan(nil), p.joins...)
	for i := range c.joins {
		jp := &c.joins[i]
		jp.leftKeys = bindExprSlice(jp.leftKeys, args)
		jp.rightKeys = bindExprSlice(jp.rightKeys, args)
		jp.buildFilter = bindExprSlice(jp.buildFilter, args)
		jp.residual = bindExprSlice(jp.residual, args)
	}
	return &c
}

// bindExprSlice binds each expression of a slice, copying the slice
// only when some element actually changes.
func bindExprSlice(es []Expr, args []Value) []Expr {
	out := es
	copied := false
	for i, e := range es {
		if b := bindExpr(e, args); b != e {
			if !copied {
				out = append([]Expr(nil), es...)
				copied = true
			}
			out[i] = b
		}
	}
	return out
}

// Stmt is a prepared statement: one normalized SELECT shape bound to a
// database, executable any number of times with different arguments.
// Safe for concurrent use; after DDL or an InvalidatePlans call the
// statement transparently recompiles through the shared cache.
type Stmt struct {
	db    *DB
	shape string
	slots []argSlot
	nUser int
	c     atomic.Pointer[compiledQuery]
}

// Prepare normalizes, parses and plans a SELECT once, returning a
// statement that executes the compilation with per-call arguments.
// Statements that are not a SELECT fail with an error wrapping
// ErrNotSelect.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	shape, slots, err := normalizeSQL(sql)
	if err != nil {
		return nil, err
	}
	st := &Stmt{db: db, shape: shape, slots: slots, nUser: countUserSlots(slots)}
	db.mu.RLock()
	c, err := db.compiled(shape)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	st.c.Store(c)
	return st, nil
}

// Query executes the prepared statement. args fill the statement's `?`
// placeholders positionally; literals baked into the prepared text are
// re-bound from the shape's slots on every call.
func (s *Stmt) Query(args ...Value) (*Result, error) {
	if len(args) != s.nUser {
		return nil, fmt.Errorf("relstore: statement has %d placeholders, got %d arguments", s.nUser, len(args))
	}
	full := mergeSlots(s.slots, args)
	db := s.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := s.c.Load()
	if c == nil || c.gen != db.schemaGen.Load() {
		var err error
		if c, err = db.compiled(s.shape); err != nil {
			return nil, err
		}
		s.c.Store(c)
	} else {
		// Fast path: the held compilation is current; count the reuse.
		db.plans.hits.Add(1)
	}
	return db.execCompiled(c, full)
}

// QueryInt runs a single-cell prepared SELECT (for example a COUNT) and
// returns the cell as an int64, mirroring DB.QueryInt.
func (s *Stmt) QueryInt(args ...Value) (int64, error) {
	res, err := s.Query(args...)
	if err != nil {
		return 0, err
	}
	return resultInt(res)
}
