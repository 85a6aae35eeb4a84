package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// scope resolves column names against the tables of a FROM/JOIN list.
type scope struct {
	refs    []TableRef
	schemas [][]ColumnDef
	// unique maps unqualified column names to (table, column) positions;
	// names appearing in several tables are recorded in ambiguous.
	unique    map[string][2]int
	ambiguous map[string]bool
}

func newScope(refs []TableRef, schemas [][]ColumnDef) *scope {
	sc := &scope{
		refs:      refs,
		schemas:   schemas,
		unique:    make(map[string][2]int),
		ambiguous: make(map[string]bool),
	}
	for ti, schema := range schemas {
		for ci, col := range schema {
			if sc.ambiguous[col.Name] {
				continue
			}
			if _, dup := sc.unique[col.Name]; dup {
				delete(sc.unique, col.Name)
				sc.ambiguous[col.Name] = true
				continue
			}
			sc.unique[col.Name] = [2]int{ti, ci}
		}
	}
	return sc
}

// resolve returns the position of a column reference. A qualifier
// resolves to the first table of that name.
func (sc *scope) resolve(tbl, col string) (colPos, error) {
	if tbl == "" {
		if sc.ambiguous[col] {
			return colPos{}, fmt.Errorf("relstore: ambiguous column %q", col)
		}
		pos, ok := sc.unique[col]
		if !ok {
			return colPos{}, fmt.Errorf("relstore: unknown column %q", col)
		}
		return colPos{table: int32(pos[0]), col: int32(pos[1]), ok: true}, nil
	}
	for ti, ref := range sc.refs {
		if ref.Name() != tbl {
			continue
		}
		for ci, c := range sc.schemas[ti] {
			if c.Name == col {
				return colPos{table: int32(ti), col: int32(ci), ok: true}, nil
			}
		}
		return colPos{}, fmt.Errorf("relstore: table %q has no column %q", tbl, col)
	}
	return colPos{}, fmt.Errorf("relstore: unknown table %q", tbl)
}

// validateSelect resolves every column reference in the query at plan
// time, so unknown or ambiguous names fail even when no rows flow, and
// records each reference's position on its node. ORDER BY may
// additionally reference output aliases.
func validateSelect(s *SelectStmt, sc *scope) error {
	aliases := make(map[string]bool, len(s.Items))
	for _, item := range s.Items {
		if item.Alias != "" {
			aliases[item.Alias] = true
		}
		if !item.Star {
			if ce, ok := item.Expr.(*ColumnExpr); ok && ce.Table == "" {
				aliases[ce.Column] = true
			}
		}
	}
	for _, item := range s.Items {
		if item.Star {
			continue
		}
		if err := validateExpr(item.Expr, sc, nil); err != nil {
			return err
		}
	}
	if s.Where != nil {
		if err := validateFilter(s.Where, sc, "WHERE"); err != nil {
			return err
		}
	}
	for _, ge := range s.GroupBy {
		if err := validateExpr(ge, sc, nil); err != nil {
			return err
		}
	}
	if s.Having != nil {
		if err := validateExpr(s.Having, sc, nil); err != nil {
			return err
		}
	}
	for _, key := range s.OrderBy {
		if err := validateExpr(key.Expr, sc, aliases); err != nil {
			return err
		}
	}
	return nil
}

// validateFilter checks a WHERE or ON clause: every column resolves,
// and no aggregate appears, since a filter sees one row at a time. The
// check runs before any row flows, so an executor that evaluates the
// clause's conjuncts in another order or over fewer rows refuses it
// just the same.
func validateFilter(e Expr, sc *scope, clause string) error {
	if err := validateExpr(e, sc, nil); err != nil {
		return err
	}
	if hasAggregate(e) {
		return fmt.Errorf("relstore: aggregate in %s clause", clause)
	}
	return nil
}

// validateExpr walks an expression, checking that every column reference
// resolves uniquely and recording its position. Names in extraNames
// (output aliases) are accepted and left unresolved: ORDER BY reads
// them from the output row.
func validateExpr(e Expr, sc *scope, extraNames map[string]bool) error {
	switch x := e.(type) {
	case *ColumnExpr:
		if x.Table == "" && extraNames[x.Column] {
			if at, err := sc.resolve("", x.Column); err == nil {
				x.at = at
			}
			return nil
		}
		at, err := sc.resolve(x.Table, x.Column)
		if err != nil {
			return err
		}
		x.at = at
		return nil
	case *BinaryExpr:
		if err := validateExpr(x.Left, sc, extraNames); err != nil {
			return err
		}
		return validateExpr(x.Right, sc, extraNames)
	case *NotExpr:
		return validateExpr(x.Inner, sc, extraNames)
	case *InExpr:
		if err := validateExpr(x.Target, sc, extraNames); err != nil {
			return err
		}
		for _, item := range x.List {
			if err := validateExpr(item, sc, extraNames); err != nil {
				return err
			}
		}
		return nil
	case *LikeExpr:
		return validateExpr(x.Target, sc, extraNames)
	case *CallExpr:
		if x.Arg != nil {
			return validateExpr(x.Arg, sc, extraNames)
		}
		return nil
	case *PlaceholderExpr:
		// Valid at validation time: the plan cache validates and plans
		// the unbound shape once, and execution always binds arguments
		// before any row flows (eval still rejects an unbound one).
		return nil
	default:
		return nil
	}
}

// env is what eval reads: one row id per table of the FROM/JOIN list
// (-1 reads every cell of that table as NULL) and, when a group is
// evaluated, the results of the query's aggregate calls.
type env struct {
	tables []*table
	ids    []int32
	calls  []*CallExpr
	aggs   []Value // aligned with calls; nil outside a group
}

func (e *env) column(x *ColumnExpr) (Value, error) {
	if !x.at.ok {
		return Value{}, fmt.Errorf("relstore: unresolved column %q", x.Column)
	}
	r := e.ids[x.at.table]
	if r < 0 {
		return Value{}, nil
	}
	return e.tables[x.at.table].vecs[x.at.col].value(r), nil
}

func (e *env) aggregate(x *CallExpr) (Value, bool) {
	if e.aggs == nil {
		return Value{}, false
	}
	for i, c := range e.calls {
		if c == x {
			return e.aggs[i], true
		}
	}
	return Value{}, false
}

// truthy converts a value to a WHERE-clause boolean: TRUE is true,
// everything else (FALSE, NULL, other kinds) is false.
func truthy(v Value) bool { return v.Kind() == KindBool && v.AsBool() }

func eval(e Expr, en *env) (Value, error) {
	switch x := e.(type) {
	case *LiteralExpr:
		return x.Value, nil
	case *ColumnExpr:
		return en.column(x)
	case *NotExpr:
		v, err := eval(x.Inner, en)
		if err != nil {
			return Value{}, err
		}
		return Bool(!truthy(v)), nil
	case *BinaryExpr:
		return evalBinary(x, en)
	case *InExpr:
		target, err := eval(x.Target, en)
		if err != nil {
			return Value{}, err
		}
		found := false
		for _, item := range x.List {
			v, err := eval(item, en)
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
		target, err := eval(x.Target, en)
		if err != nil {
			return Value{}, err
		}
		if target.Kind() != KindText {
			return Bool(false), nil
		}
		return Bool(x.program().match(target.AsText()) != x.Negate), nil
	case *CallExpr:
		if v, ok := en.aggregate(x); ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("relstore: aggregate %s used outside grouped query", x.Func)
	case *PlaceholderExpr:
		return Value{}, fmt.Errorf("relstore: unbound placeholder ?%d (pass arguments to Query/Exec)", x.Index+1)
	default:
		return Value{}, fmt.Errorf("relstore: cannot evaluate %T", e)
	}
}

func evalBinary(x *BinaryExpr, en *env) (Value, error) {
	switch x.Op {
	case "AND", "OR":
		l, err := eval(x.Left, en)
		if err != nil {
			return Value{}, err
		}
		if truthy(l) == (x.Op == "OR") {
			return Bool(truthy(l)), nil
		}
		r, err := eval(x.Right, en)
		if err != nil {
			return Value{}, err
		}
		return Bool(truthy(r)), nil
	}
	l, err := eval(x.Left, en)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(x.Right, en)
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

// holds reports whether every conjunct is true for the tuple in en.
func holds(conjuncts []Expr, en *env) (bool, error) {
	for _, c := range conjuncts {
		v, err := eval(c, en)
		if err != nil || !truthy(v) {
			return false, err
		}
	}
	return true, nil
}

// finishSelect is the tail of a SELECT once its FROM, JOIN and WHERE
// clauses have produced the surviving row-id tuples (work, one tuple of
// len(plan.tables) ids after another): projection or grouping,
// DISTINCT, ORDER BY, LIMIT. The result's cells are built here.
func finishSelect(s *SelectStmt, plan *selectPlan, work []int32) (*Result, error) {
	out := &output{plan: plan, work: work, width: len(plan.tables)}
	out.en = env{tables: plan.tables, ids: make([]int32, out.width)}
	res := &Result{Columns: outputColumns(s, plan.refs, plan.schemas)}
	var err error
	if len(s.GroupBy) > 0 || s.Having != nil || itemsHaveAggregates(s) {
		res.Rows, err = out.grouped(s)
	} else {
		res.Rows, err = out.plain(s)
	}
	if err != nil {
		return nil, err
	}
	if s.Distinct {
		out.dedupe(res)
	}
	if len(s.OrderBy) > 0 {
		if err := out.order(s, res); err != nil {
			return nil, err
		}
	}
	if s.Limit >= 0 && len(res.Rows) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

// output builds a result's rows. origin[i] names what output row i was
// evaluated over, so ORDER BY can evaluate its keys there again: a
// tuple of work for a plain query, an entry of groups for a grouped
// one.
type output struct {
	plan   *selectPlan
	work   []int32
	width  int
	en     env
	origin []int32
	groups []group
}

// group is one GROUP BY group: its first tuple (-1 for the one group of
// an aggregate query over no rows, whose plain columns read NULL) and
// its aggregate results.
type group struct {
	first int32
	aggs  []Value
}

// at points the env at origin o of output row i.
func (out *output) at(o int32) *env {
	en := &out.en
	if out.groups == nil {
		copy(en.ids, out.work[int(o)*out.width:])
		return en
	}
	g := &out.groups[o]
	if g.first < 0 {
		for i := range en.ids {
			en.ids[i] = -1
		}
	} else {
		copy(en.ids, out.work[int(g.first)*out.width:])
	}
	en.aggs = g.aggs
	return en
}

// newRows returns n rows of width w cut from one backing array.
func newRows(n, w int) [][]Value {
	cells := make([]Value, n*w)
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

func (out *output) plain(s *SelectStmt) ([][]Value, error) {
	n := len(out.work) / out.width
	w := 0
	for _, item := range s.Items {
		if !item.Star {
			w++
			continue
		}
		for _, schema := range out.plan.schemas {
			w += len(schema)
		}
	}
	rows := newRows(n, w)
	out.origin = make([]int32, n)
	for i, row := range rows {
		out.origin[i] = int32(i)
		en := out.at(int32(i))
		j := 0
		for _, item := range s.Items {
			if item.Star {
				for ti, t := range en.tables {
					t.row(en.ids[ti], row[j:])
					j += len(t.cols)
				}
				continue
			}
			v, err := eval(item.Expr, en)
			if err != nil {
				return nil, err
			}
			row[j] = v
			j++
		}
	}
	return rows, nil
}

func (out *output) grouped(s *SelectStmt) ([][]Value, error) {
	for _, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("relstore: SELECT * cannot be combined with grouping")
		}
	}
	calls := collectCalls(s)
	out.groups = []group{}
	var accs [][]aggAccumulator
	byKey := make(map[string]int32)
	en := &out.en
	var key []byte
	for t := 0; t*out.width < len(out.work); t++ {
		copy(en.ids, out.work[t*out.width:])
		key = key[:0]
		for _, ge := range s.GroupBy {
			v, err := eval(ge, en)
			if err != nil {
				return nil, err
			}
			key = appendKey(key, v)
		}
		gi, ok := byKey[string(key)]
		if !ok {
			gi = int32(len(out.groups))
			byKey[string(key)] = gi
			out.groups = append(out.groups, group{first: int32(t)})
			accs = append(accs, newAccumulators(calls))
		}
		for i, c := range calls {
			if err := accs[gi][i].add(c, en); err != nil {
				return nil, err
			}
		}
	}
	// A grouped query with no GROUP BY clause and no input rows still
	// yields one row of aggregates over the empty set.
	if len(s.GroupBy) == 0 && len(out.groups) == 0 {
		out.groups = append(out.groups, group{first: -1})
		accs = append(accs, newAccumulators(calls))
	}

	en.calls = calls
	rows := newRows(len(out.groups), len(s.Items))
	kept := 0
	for gi := range out.groups {
		g := &out.groups[gi]
		g.aggs = make([]Value, len(calls))
		for i := range calls {
			g.aggs[i] = accs[gi][i].result()
		}
		en := out.at(int32(gi))
		if s.Having != nil {
			v, err := eval(s.Having, en)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		for i, item := range s.Items {
			v, err := eval(item.Expr, en)
			if err != nil {
				return nil, err
			}
			rows[kept][i] = v
		}
		kept++
		out.origin = append(out.origin, int32(gi))
	}
	return rows[:kept], nil
}

// collectCalls gathers every aggregate call in the query in a stable
// order, so accumulators can be matched positionally.
func collectCalls(s *SelectStmt) []*CallExpr {
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

func itemsHaveAggregates(s *SelectStmt) bool {
	for _, item := range s.Items {
		if !item.Star && hasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

// aggAccumulator folds rows into one aggregate value.
type aggAccumulator struct {
	fn       string
	count    int64
	sum      float64
	sumIsInt bool
	intSum   int64
	min, max Value
	// distinct holds the mapKeys COUNT(DISTINCT) has seen.
	distinct map[Value]bool
}

func newAccumulators(calls []*CallExpr) []aggAccumulator {
	accs := make([]aggAccumulator, len(calls))
	for i, c := range calls {
		accs[i] = aggAccumulator{fn: c.Func, sumIsInt: true}
		if c.Distinct {
			accs[i].distinct = make(map[Value]bool)
		}
	}
	return accs
}

func (a *aggAccumulator) add(c *CallExpr, en *env) error {
	if c.Star {
		a.count++
		return nil
	}
	v, err := eval(c.Arg, en)
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

func (a *aggAccumulator) result() Value {
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

// outputColumns names the result columns: aliases win, bare column
// references keep their names, stars expand to the joined schema, and
// anything else is named expr1, expr2, ...
func outputColumns(s *SelectStmt, refs []TableRef, schemas [][]ColumnDef) []string {
	var out []string
	for i, item := range s.Items {
		switch {
		case item.Star:
			for ti, schema := range schemas {
				prefix := ""
				if len(schemas) > 1 {
					prefix = refs[ti].Name() + "."
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

// dedupe keeps the first of each run of equal rows, in order.
func (out *output) dedupe(res *Result) {
	seen := make(map[string]struct{}, len(res.Rows))
	var key []byte
	rows, origin := res.Rows[:0], out.origin[:0]
	for i, row := range res.Rows {
		key = key[:0]
		for _, v := range row {
			key = appendKey(key, v)
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		rows = append(rows, row)
		origin = append(origin, out.origin[i])
	}
	res.Rows, out.origin = rows, origin
}

// order sorts rows by the ORDER BY keys. Keys are evaluated where each
// row was; a key that is a bare name matching an output column falls
// back to that column, so aliases are orderable.
func (out *output) order(s *SelectStmt, res *Result) error {
	colIndex := make(map[string]int, len(res.Columns))
	for i, c := range res.Columns {
		colIndex[c] = i
	}
	nk := len(s.OrderBy)
	keys := make([]Value, len(res.Rows)*nk)
	for i, row := range res.Rows {
		for j, ok := range s.OrderBy {
			if ce, isCol := ok.Expr.(*ColumnExpr); isCol && ce.Table == "" {
				if ci, found := colIndex[ce.Column]; found {
					keys[i*nk+j] = row[ci]
					continue
				}
			}
			v, err := eval(ok.Expr, out.at(out.origin[i]))
			if err != nil {
				return err
			}
			keys[i*nk+j] = v
		}
	}
	idx := make([]int, len(res.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]*nk:], keys[idx[b]*nk:]
		for j, ok := range s.OrderBy {
			c := ka[j].Compare(kb[j])
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
