package relstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The reference SELECT executor: the oracle the planner's identity
// tests and FuzzSelectMatchesOracle compare against. It shares only
// parsing, binding and validation with the planner. It reads each table
// through ScanTable into a private row-major copy, scans every table
// whole, hash-joins only a bare `L.col = R.col` ON clause (nested loop
// otherwise), applies the whole WHERE after all joins, and runs its own
// row-major projection, grouping, DISTINCT and ORDER BY tail. It never
// reads a column vector or an index.

// naiveTable is the oracle's copy of one table.
type naiveTable struct {
	cols []ColumnDef
	rows [][]Value
}

// naiveTable copies a table through ScanTable.
func (db *DB) naiveTable(name string) (*naiveTable, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", name)
	}
	nt := &naiveTable{cols: t.cols}
	err := ScanTable(db, name, func(row []Value) bool {
		nt.rows = append(nt.rows, append([]Value(nil), row...))
		return true
	})
	return nt, err
}

// queryNaive parses, binds and runs a SELECT through the oracle on
// every call, never touching the plan cache.
func (db *DB) queryNaive(sql string, args ...Value) (*Result, error) {
	sel, err := ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	if sel, err = bindSelect(sel, args); err != nil {
		return nil, err
	}
	return db.execSelectNaive(sel)
}

// naiveRows is the oracle's working set: one row per table for each
// surviving combined row.
type naiveRows struct {
	refs    []TableRef
	schemas [][]ColumnDef
	combos  [][][]Value // combos[i][t] = row of table t in combined row i
}

// execSelectNaive runs a bound SELECT through the oracle.
func (db *DB) execSelectNaive(s *SelectStmt) (*Result, error) {
	base, err := db.naiveTable(s.From.Table)
	if err != nil {
		return nil, err
	}
	work := &naiveRows{
		refs:    []TableRef{s.From},
		schemas: [][]ColumnDef{base.cols},
	}
	for _, row := range base.rows {
		work.combos = append(work.combos, [][]Value{row})
	}

	for _, join := range s.Joins {
		t, err := db.naiveTable(join.Table.Table)
		if err != nil {
			return nil, err
		}
		on := newScope(append(append([]TableRef(nil), work.refs...), join.Table),
			append(append([][]ColumnDef(nil), work.schemas...), t.cols))
		if err := validateFilter(join.On, on, "ON"); err != nil {
			return nil, err
		}
		if work, err = naiveJoin(work, join, t); err != nil {
			return nil, err
		}
	}

	if err := validateSelect(s, newScope(work.refs, work.schemas)); err != nil {
		return nil, err
	}

	env := newNaiveEnv(work.refs, work.schemas)
	var filtered [][][]Value
	if s.Where != nil {
		for _, combo := range work.combos {
			env.rows = combo
			v, err := naiveEval(s.Where, env)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				filtered = append(filtered, combo)
			}
		}
	} else {
		filtered = work.combos
	}
	return naiveFinish(s, work, filtered)
}

// naiveJoin extends the working set with one inner join, using a hash
// join when the ON clause is a simple equality between one existing
// column and one column of the new table. A NULL or NaN key joins
// nothing, as NULL = x and NaN = x are never true.
func naiveJoin(work *naiveRows, join JoinClause, t *naiveTable) (*naiveRows, error) {
	next := &naiveRows{
		refs:    append(append([]TableRef(nil), work.refs...), join.Table),
		schemas: append(append([][]ColumnDef(nil), work.schemas...), t.cols),
	}
	env := newNaiveEnv(next.refs, next.schemas)

	leftExpr, rightExpr, hashable := equiJoinSides(join.On, work, join.Table, t)
	if hashable {
		// Build side: hash the new table on its join column.
		build := make(map[Value][]int, len(t.rows))
		rightEnv := newNaiveEnv([]TableRef{join.Table}, [][]ColumnDef{t.cols})
		for ri, row := range t.rows {
			rightEnv.rows = [][]Value{row}
			v, err := naiveEval(rightExpr, rightEnv)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || v.isNaN() {
				continue
			}
			build[v.mapKey()] = append(build[v.mapKey()], ri)
		}
		leftEnv := newNaiveEnv(work.refs, work.schemas)
		for _, combo := range work.combos {
			leftEnv.rows = combo
			v, err := naiveEval(leftExpr, leftEnv)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || v.isNaN() {
				continue
			}
			for _, ri := range build[v.mapKey()] {
				extended := append(append([][]Value(nil), combo...), t.rows[ri])
				next.combos = append(next.combos, extended)
			}
		}
		return next, nil
	}

	// General nested loop with the full ON predicate.
	for _, combo := range work.combos {
		for _, row := range t.rows {
			extended := append(append([][]Value(nil), combo...), row)
			env.rows = extended
			v, err := naiveEval(join.On, env)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				next.combos = append(next.combos, extended)
			}
		}
	}
	return next, nil
}

// equiJoinSides decomposes an ON clause of the form L.col = R.col where
// exactly one side references the table being joined in. It returns the
// expression bound to the existing working set and the one bound to the
// new table.
func equiJoinSides(on Expr, work *naiveRows, newRef TableRef, t *naiveTable) (left, right Expr, ok bool) {
	be, isBin := on.(*BinaryExpr)
	if !isBin || be.Op != "=" {
		return nil, nil, false
	}
	lc, lok := be.Left.(*ColumnExpr)
	rc, rok := be.Right.(*ColumnExpr)
	if !lok || !rok {
		return nil, nil, false
	}
	belongsToNew := func(c *ColumnExpr) bool {
		if c.Table != "" {
			// A qualifier resolves to the first table of that name, as
			// in eval: claim the column for the new table only when no
			// existing table goes by the same name.
			for _, ref := range work.refs {
				if ref.Name() == c.Table {
					return false
				}
			}
			return c.Table == newRef.Name()
		}
		inNew := false
		for _, col := range t.cols {
			inNew = inNew || col.Name == c.Column
		}
		if !inNew {
			return false
		}
		// Unqualified: only claim it for the new table when no existing
		// table also has the column.
		for _, schema := range work.schemas {
			for _, col := range schema {
				if col.Name == c.Column {
					return false
				}
			}
		}
		return true
	}
	switch {
	case belongsToNew(rc) && !belongsToNew(lc):
		return lc, rc, true
	case belongsToNew(lc) && !belongsToNew(rc):
		return rc, lc, true
	default:
		return nil, nil, false
	}
}

// naiveEvalEnv supplies column values (and, in grouped execution,
// aggregate results) to naiveEval.
type naiveEvalEnv interface {
	lookupColumn(table, col string) (Value, error)
	aggregate(c *CallExpr) (Value, bool)
}

// naiveEnv binds one row per referenced table and looks columns up by
// name on every read.
type naiveEnv struct {
	refs    []TableRef
	schemas [][]ColumnDef
	rows    [][]Value
	names   *scope
}

func newNaiveEnv(refs []TableRef, schemas [][]ColumnDef) *naiveEnv {
	return &naiveEnv{refs: refs, schemas: schemas, rows: make([][]Value, len(refs)), names: newScope(refs, schemas)}
}

func (env *naiveEnv) lookupColumn(tbl, col string) (Value, error) {
	at, err := env.names.resolve(tbl, col)
	if err != nil {
		return Value{}, err
	}
	return env.rows[at.table][at.col], nil
}

func (env *naiveEnv) aggregate(*CallExpr) (Value, bool) { return Value{}, false }

// naiveGroupEnv evaluates expressions over one group: plain columns
// resolve on the group's first row; aggregate calls resolve to
// precomputed values.
type naiveGroupEnv struct {
	first *naiveEnv
	aggs  map[*CallExpr]Value
}

func (g *naiveGroupEnv) lookupColumn(tbl, col string) (Value, error) {
	return g.first.lookupColumn(tbl, col)
}

func (g *naiveGroupEnv) aggregate(c *CallExpr) (Value, bool) {
	v, ok := g.aggs[c]
	return v, ok
}

func naiveEval(e Expr, env naiveEvalEnv) (Value, error) {
	switch x := e.(type) {
	case *LiteralExpr:
		return x.Value, nil
	case *ColumnExpr:
		return env.lookupColumn(x.Table, x.Column)
	case *NotExpr:
		v, err := naiveEval(x.Inner, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(!truthy(v)), nil
	case *BinaryExpr:
		return naiveEvalBinary(x, env)
	case *InExpr:
		target, err := naiveEval(x.Target, env)
		if err != nil {
			return Value{}, err
		}
		found := false
		for _, item := range x.List {
			v, err := naiveEval(item, env)
			if err != nil {
				return Value{}, err
			}
			if target.Equal(v) {
				found = true
				break
			}
		}
		return Bool(found != x.Negate), nil
	case *LikeExpr:
		target, err := naiveEval(x.Target, env)
		if err != nil {
			return Value{}, err
		}
		if target.Kind() != KindText {
			return Bool(false), nil
		}
		return Bool(x.program().match(target.AsText()) != x.Negate), nil
	case *CallExpr:
		if v, ok := env.aggregate(x); ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("relstore: aggregate %s used outside grouped query", x.Func)
	case *PlaceholderExpr:
		return Value{}, fmt.Errorf("relstore: unbound placeholder ?%d (pass arguments to Query/Exec)", x.Index+1)
	default:
		return Value{}, fmt.Errorf("relstore: cannot evaluate %T", e)
	}
}

func naiveEvalBinary(x *BinaryExpr, env naiveEvalEnv) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := naiveEval(x.Left, env)
		if err != nil {
			return Value{}, err
		}
		if !truthy(l) {
			return Bool(false), nil
		}
		r, err := naiveEval(x.Right, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(truthy(r)), nil
	case "OR":
		l, err := naiveEval(x.Left, env)
		if err != nil {
			return Value{}, err
		}
		if truthy(l) {
			return Bool(true), nil
		}
		r, err := naiveEval(x.Right, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(truthy(r)), nil
	}
	l, err := naiveEval(x.Left, env)
	if err != nil {
		return Value{}, err
	}
	r, err := naiveEval(x.Right, env)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=":
		return Bool(l.Equal(r)), nil
	case "<>":
		if l.IsNull() || r.IsNull() {
			return Bool(false), nil
		}
		return Bool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Bool(false), nil
		}
		c := l.Compare(r)
		switch x.Op {
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	default:
		return Value{}, fmt.Errorf("relstore: unknown operator %q", x.Op)
	}
}

// naiveTupleKey keys a tuple of values by each part's mapKey, spelled
// out as text, independently of the planner's key encoding.
func naiveTupleKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		k := v.mapKey()
		fmt.Fprintf(&b, "%d:%d:%s,", int(k.kind), k.n, strconv.Quote(k.s))
	}
	return b.String()
}

// naiveFinish is the oracle's tail once its FROM, JOIN and WHERE
// clauses have produced the surviving combos: projection or grouping,
// DISTINCT, ORDER BY, LIMIT.
func naiveFinish(s *SelectStmt, work *naiveRows, filtered [][][]Value) (*Result, error) {
	grouped := len(s.GroupBy) > 0 || s.Having != nil || itemsHaveAggregates(s)
	var (
		res  *Result
		envs []naiveEvalEnv
		err  error
	)
	if grouped {
		res, envs, err = naiveGrouped(s, work, filtered)
	} else {
		res, envs, err = naivePlain(s, work, filtered)
	}
	if err != nil {
		return nil, err
	}
	if s.Distinct {
		res, envs = naiveDedupe(res, envs)
	}
	if len(s.OrderBy) > 0 {
		if err := naiveOrder(s, res, envs); err != nil {
			return nil, err
		}
	}
	if s.Limit >= 0 && len(res.Rows) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

func naivePlain(s *SelectStmt, work *naiveRows, combos [][][]Value) (*Result, []naiveEvalEnv, error) {
	res := &Result{Columns: naiveOutputColumns(s, work)}
	var envs []naiveEvalEnv
	for _, combo := range combos {
		env := newNaiveEnv(work.refs, work.schemas)
		env.rows = combo
		var row []Value
		for _, item := range s.Items {
			if item.Star {
				for ti := range work.schemas {
					row = append(row, env.rows[ti]...)
				}
				continue
			}
			v, err := naiveEval(item.Expr, env)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, v)
		}
		res.Rows = append(res.Rows, row)
		envs = append(envs, env)
	}
	return res, envs, nil
}

func naiveGrouped(s *SelectStmt, work *naiveRows, combos [][][]Value) (*Result, []naiveEvalEnv, error) {
	cols := naiveOutputColumns(s, work)
	for _, item := range s.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("relstore: SELECT * cannot be combined with grouping")
		}
	}

	calls := naiveCollectCalls(s)
	type group struct {
		firstEnv *naiveEnv
		accs     []*naiveAcc
	}
	groups := make(map[string]*group)
	var order []*group

	scratch := newNaiveEnv(work.refs, work.schemas)
	keyVals := make([]Value, len(s.GroupBy))
	for _, combo := range combos {
		scratch.rows = combo
		for i, ge := range s.GroupBy {
			v, err := naiveEval(ge, scratch)
			if err != nil {
				return nil, nil, err
			}
			keyVals[i] = v
		}
		key := naiveTupleKey(keyVals)
		g, ok := groups[key]
		if !ok {
			first := newNaiveEnv(work.refs, work.schemas)
			first.rows = combo
			g = &group{firstEnv: first, accs: make([]*naiveAcc, len(calls))}
			for i, c := range calls {
				g.accs[i] = newNaiveAcc(c)
			}
			groups[key] = g
			order = append(order, g)
		}
		for i, c := range calls {
			if err := g.accs[i].add(c, scratch); err != nil {
				return nil, nil, err
			}
		}
	}

	// A grouped query with no GROUP BY clause and no input rows still
	// yields one row of aggregates over the empty set. Its plain column
	// references read an all-NULL row of each table.
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		empty := newNaiveEnv(work.refs, work.schemas)
		for ti, schema := range work.schemas {
			empty.rows[ti] = make([]Value, len(schema))
		}
		g := &group{firstEnv: empty, accs: make([]*naiveAcc, len(calls))}
		for i, c := range calls {
			g.accs[i] = newNaiveAcc(c)
		}
		order = append(order, g)
	}

	res := &Result{Columns: cols}
	var envs []naiveEvalEnv
	for _, g := range order {
		aggs := make(map[*CallExpr]Value, len(calls))
		for i, c := range calls {
			aggs[c] = g.accs[i].result()
		}
		genv := &naiveGroupEnv{first: g.firstEnv, aggs: aggs}
		if s.Having != nil {
			v, err := naiveEval(s.Having, genv)
			if err != nil {
				return nil, nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		row := make([]Value, len(s.Items))
		for i, item := range s.Items {
			v, err := naiveEval(item.Expr, genv)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		envs = append(envs, genv)
	}
	return res, envs, nil
}

// naiveCollectCalls gathers every aggregate call in the query in a
// stable order, so accumulators can be matched positionally.
func naiveCollectCalls(s *SelectStmt) []*CallExpr {
	var calls []*CallExpr
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *CallExpr:
			calls = append(calls, x)
			if x.Arg != nil {
				walk(x.Arg)
			}
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *NotExpr:
			walk(x.Inner)
		case *InExpr:
			walk(x.Target)
			for _, item := range x.List {
				walk(item)
			}
		case *LikeExpr:
			walk(x.Target)
		}
	}
	for _, item := range s.Items {
		if !item.Star {
			walk(item.Expr)
		}
	}
	if s.Having != nil {
		walk(s.Having)
	}
	for _, key := range s.OrderBy {
		walk(key.Expr)
	}
	return calls
}

// naiveAcc folds rows into one aggregate value.
type naiveAcc struct {
	fn       string
	count    int64
	sum      float64
	sumIsInt bool
	intSum   int64
	min, max Value
	distinct map[Value]bool
}

func newNaiveAcc(c *CallExpr) *naiveAcc {
	acc := &naiveAcc{fn: c.Func, sumIsInt: true}
	if c.Distinct {
		acc.distinct = make(map[Value]bool)
	}
	return acc
}

func (a *naiveAcc) add(c *CallExpr, env naiveEvalEnv) error {
	if c.Star {
		a.count++
		return nil
	}
	v, err := naiveEval(c.Arg, env)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	if a.distinct != nil {
		k := v.mapKey()
		if a.distinct[k] {
			return nil
		}
		a.distinct[k] = true
	}
	a.count++
	switch a.fn {
	case "SUM", "AVG":
		if !v.numeric() {
			return fmt.Errorf("relstore: %s over non-numeric value %s", a.fn, v)
		}
		if v.Kind() == KindInt {
			a.intSum += v.AsInt()
		} else {
			a.sumIsInt = false
		}
		a.sum += v.AsFloat()
	case "MIN":
		if a.min.IsNull() || v.Compare(a.min) < 0 {
			a.min = v
		}
	case "MAX":
		if a.max.IsNull() || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
	return nil
}

func (a *naiveAcc) result() Value {
	switch a.fn {
	case "COUNT":
		return Int(a.count)
	case "SUM":
		if a.count == 0 {
			return Null()
		}
		if a.sumIsInt {
			return Int(a.intSum)
		}
		return Float(a.sum)
	case "AVG":
		if a.count == 0 {
			return Null()
		}
		return Float(a.sum / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	default:
		return Null()
	}
}

// naiveOutputColumns names the result columns: aliases win, bare
// column references keep their names, stars expand to the joined
// schema, and anything else is named expr1, expr2, ...
func naiveOutputColumns(s *SelectStmt, work *naiveRows) []string {
	var out []string
	for i, item := range s.Items {
		switch {
		case item.Star:
			for ti, schema := range work.schemas {
				prefix := ""
				if len(work.schemas) > 1 {
					prefix = work.refs[ti].Name() + "."
				}
				for _, col := range schema {
					out = append(out, prefix+col.Name)
				}
			}
		case item.Alias != "":
			out = append(out, item.Alias)
		default:
			switch x := item.Expr.(type) {
			case *ColumnExpr:
				out = append(out, x.Column)
			case *CallExpr:
				out = append(out, strings.ToLower(x.Func))
			default:
				out = append(out, fmt.Sprintf("expr%d", i+1))
			}
		}
	}
	return out
}

func naiveDedupe(res *Result, envs []naiveEvalEnv) (*Result, []naiveEvalEnv) {
	seen := make(map[string]bool, len(res.Rows))
	out := res.Rows[:0]
	var outEnvs []naiveEvalEnv
	for i, row := range res.Rows {
		k := naiveTupleKey(row)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, row)
		if envs != nil {
			outEnvs = append(outEnvs, envs[i])
		}
	}
	res.Rows = out
	return res, outEnvs
}

// naiveOrder sorts rows by the ORDER BY keys. Keys are evaluated in
// each row's originating environment; a key that is a bare name
// matching an output column falls back to that column, so aliases are
// orderable.
func naiveOrder(s *SelectStmt, res *Result, envs []naiveEvalEnv) error {
	colIndex := make(map[string]int, len(res.Columns))
	for i, c := range res.Columns {
		colIndex[c] = i
	}
	keys := make([][]Value, len(res.Rows))
	for i := range res.Rows {
		keys[i] = make([]Value, len(s.OrderBy))
		for j, ok := range s.OrderBy {
			if ce, isCol := ok.Expr.(*ColumnExpr); isCol && ce.Table == "" {
				if ci, found := colIndex[ce.Column]; found {
					keys[i][j] = res.Rows[i][ci]
					continue
				}
			}
			v, err := naiveEval(ok.Expr, envs[i])
			if err != nil {
				return err
			}
			keys[i][j] = v
		}
	}
	idx := make([]int, len(res.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for j, ok := range s.OrderBy {
			c := keys[idx[a]][j].Compare(keys[idx[b]][j])
			if c == 0 {
				continue
			}
			if ok.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([][]Value, len(res.Rows))
	for i, from := range idx {
		sorted[i] = res.Rows[from]
	}
	res.Rows = sorted
	return nil
}
