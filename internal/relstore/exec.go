package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// evalEnv supplies column values (and, in grouped execution, aggregate
// results) to eval.
type evalEnv interface {
	lookupColumn(table, col string) (Value, error)
	aggregate(c *CallExpr) (Value, bool)
}

// rowEnv binds one row per referenced table.
type rowEnv struct {
	refs    []TableRef
	schemas [][]ColumnDef
	rows    [][]Value
	// unique maps unqualified column names to (table, column) positions;
	// names appearing in several tables are recorded in ambiguous.
	unique    map[string][2]int
	ambiguous map[string]bool
}

func newRowEnv(refs []TableRef, schemas [][]ColumnDef) *rowEnv {
	env := &rowEnv{
		refs:      refs,
		schemas:   schemas,
		rows:      make([][]Value, len(refs)),
		unique:    make(map[string][2]int),
		ambiguous: make(map[string]bool),
	}
	for ti, schema := range schemas {
		for ci, col := range schema {
			if env.ambiguous[col.Name] {
				continue
			}
			if _, dup := env.unique[col.Name]; dup {
				delete(env.unique, col.Name)
				env.ambiguous[col.Name] = true
				continue
			}
			env.unique[col.Name] = [2]int{ti, ci}
		}
	}
	return env
}

func (env *rowEnv) set(tableIdx int, row []Value) { env.rows[tableIdx] = row }

func (env *rowEnv) lookupColumn(tbl, col string) (Value, error) {
	if tbl == "" {
		if env.ambiguous[col] {
			return Value{}, fmt.Errorf("relstore: ambiguous column %q", col)
		}
		pos, ok := env.unique[col]
		if !ok {
			return Value{}, fmt.Errorf("relstore: unknown column %q", col)
		}
		return env.rows[pos[0]][pos[1]], nil
	}
	for ti, ref := range env.refs {
		if ref.Name() != tbl {
			continue
		}
		for ci, c := range env.schemas[ti] {
			if c.Name == col {
				return env.rows[ti][ci], nil
			}
		}
		return Value{}, fmt.Errorf("relstore: table %q has no column %q", tbl, col)
	}
	return Value{}, fmt.Errorf("relstore: unknown table %q", tbl)
}

func (env *rowEnv) aggregate(*CallExpr) (Value, bool) { return Value{}, false }

// checkColumn validates a reference without needing row data.
func (env *rowEnv) checkColumn(tbl, col string) error {
	if tbl == "" {
		if env.ambiguous[col] {
			return fmt.Errorf("relstore: ambiguous column %q", col)
		}
		if _, ok := env.unique[col]; !ok {
			return fmt.Errorf("relstore: unknown column %q", col)
		}
		return nil
	}
	for ti, ref := range env.refs {
		if ref.Name() != tbl {
			continue
		}
		for _, c := range env.schemas[ti] {
			if c.Name == col {
				return nil
			}
		}
		return fmt.Errorf("relstore: table %q has no column %q", tbl, col)
	}
	return fmt.Errorf("relstore: unknown table %q", tbl)
}

// groupEnv evaluates expressions over one group: plain columns resolve on
// the group's first row; aggregate calls resolve to precomputed values.
type groupEnv struct {
	first *rowEnv
	aggs  map[*CallExpr]Value
}

func (g *groupEnv) lookupColumn(tbl, col string) (Value, error) {
	return g.first.lookupColumn(tbl, col)
}

func (g *groupEnv) aggregate(c *CallExpr) (Value, bool) {
	v, ok := g.aggs[c]
	return v, ok
}

// truthy converts a value to a WHERE-clause boolean: TRUE is true,
// everything else (FALSE, NULL, other kinds) is false.
func truthy(v Value) bool { return v.Kind() == KindBool && v.AsBool() }

func eval(e Expr, env evalEnv) (Value, error) {
	switch x := e.(type) {
	case *LiteralExpr:
		return x.Value, nil
	case *ColumnExpr:
		return env.lookupColumn(x.Table, x.Column)
	case *NotExpr:
		v, err := eval(x.Inner, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(!truthy(v)), nil
	case *BinaryExpr:
		return evalBinary(x, env)
	case *InExpr:
		target, err := eval(x.Target, env)
		if err != nil {
			return Value{}, err
		}
		found := false
		for _, item := range x.List {
			v, err := eval(item, env)
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
		target, err := eval(x.Target, env)
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

func evalBinary(x *BinaryExpr, env evalEnv) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := eval(x.Left, env)
		if err != nil {
			return Value{}, err
		}
		if !truthy(l) {
			return Bool(false), nil
		}
		r, err := eval(x.Right, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(truthy(r)), nil
	case "OR":
		l, err := eval(x.Left, env)
		if err != nil {
			return Value{}, err
		}
		if truthy(l) {
			return Bool(true), nil
		}
		r, err := eval(x.Right, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(truthy(r)), nil
	}
	l, err := eval(x.Left, env)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(x.Right, env)
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

// joinedRows is the working set of a SELECT: one rowEnv snapshot per
// surviving combined row. Envs are materialized as slices of per-table
// rows to keep the hash-join implementation simple.
type joinedRows struct {
	refs    []TableRef
	schemas [][]ColumnDef
	combos  [][][]Value // combos[i][t] = row of table t in combined row i
}

// finishSelect is the tail of a SELECT once its FROM, JOIN and WHERE
// clauses have produced the surviving combos: projection or grouping,
// DISTINCT, ORDER BY, LIMIT.
func (db *DB) finishSelect(s *SelectStmt, work *joinedRows, filtered [][][]Value) (*Result, error) {
	grouped := len(s.GroupBy) > 0 || s.Having != nil || itemsHaveAggregates(s)
	var (
		res  *Result
		envs []evalEnv
		err  error
	)
	if grouped {
		res, envs, err = db.execGrouped(s, work, filtered)
	} else {
		res, envs, err = db.execPlain(s, work, filtered)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		res, envs = dedupe(res, envs)
	}
	if len(s.OrderBy) > 0 {
		if err := orderResult(s, res, envs); err != nil {
			return nil, err
		}
	}
	if s.Limit >= 0 && len(res.Rows) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

// validateSelect resolves every column reference in the query at plan
// time, so unknown or ambiguous names fail even when no rows flow.
// ORDER BY may additionally reference output aliases.
func validateSelect(s *SelectStmt, env *rowEnv) error {
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
		if err := validateExpr(item.Expr, env, nil); err != nil {
			return err
		}
	}
	if s.Where != nil {
		if err := validateFilter(s.Where, env, "WHERE"); err != nil {
			return err
		}
	}
	for _, ge := range s.GroupBy {
		if err := validateExpr(ge, env, nil); err != nil {
			return err
		}
	}
	if s.Having != nil {
		if err := validateExpr(s.Having, env, nil); err != nil {
			return err
		}
	}
	for _, key := range s.OrderBy {
		if err := validateExpr(key.Expr, env, aliases); err != nil {
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
func validateFilter(e Expr, env *rowEnv, clause string) error {
	if err := validateExpr(e, env, nil); err != nil {
		return err
	}
	if hasAggregate(e) {
		return fmt.Errorf("relstore: aggregate in %s clause", clause)
	}
	return nil
}

// validateExpr walks an expression, checking that every column reference
// resolves uniquely. Names in extraNames (output aliases) are accepted.
func validateExpr(e Expr, env *rowEnv, extraNames map[string]bool) error {
	switch x := e.(type) {
	case *ColumnExpr:
		if x.Table == "" && extraNames[x.Column] {
			return nil
		}
		return env.checkColumn(x.Table, x.Column)
	case *BinaryExpr:
		if err := validateExpr(x.Left, env, extraNames); err != nil {
			return err
		}
		return validateExpr(x.Right, env, extraNames)
	case *NotExpr:
		return validateExpr(x.Inner, env, extraNames)
	case *InExpr:
		if err := validateExpr(x.Target, env, extraNames); err != nil {
			return err
		}
		for _, item := range x.List {
			if err := validateExpr(item, env, extraNames); err != nil {
				return err
			}
		}
		return nil
	case *LikeExpr:
		return validateExpr(x.Target, env, extraNames)
	case *CallExpr:
		if x.Arg != nil {
			return validateExpr(x.Arg, env, extraNames)
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

func itemsHaveAggregates(s *SelectStmt) bool {
	for _, item := range s.Items {
		if !item.Star && hasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

func (db *DB) execPlain(s *SelectStmt, work *joinedRows, combos [][][]Value) (*Result, []evalEnv, error) {
	cols, err := outputColumns(s, work)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Columns: cols}
	var envs []evalEnv
	for _, combo := range combos {
		env := newRowEnv(work.refs, work.schemas)
		env.rows = combo
		row, err := projectRow(s, work, env)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, row)
		envs = append(envs, env)
	}
	return res, envs, nil
}

func (db *DB) execGrouped(s *SelectStmt, work *joinedRows, combos [][][]Value) (*Result, []evalEnv, error) {
	cols, err := outputColumns(s, work)
	if err != nil {
		return nil, nil, err
	}
	for _, item := range s.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("relstore: SELECT * cannot be combined with grouping")
		}
	}

	calls := collectCalls(s)
	type group struct {
		firstEnv *rowEnv
		accs     []*aggAccumulator
	}
	groups := make(map[Value]*group)
	var order []*group

	scratch := newRowEnv(work.refs, work.schemas)
	keyVals := make([]Value, len(s.GroupBy))
	for _, combo := range combos {
		scratch.rows = combo
		for i, ge := range s.GroupBy {
			v, err := eval(ge, scratch)
			if err != nil {
				return nil, nil, err
			}
			keyVals[i] = v
		}
		key := tupleKey(keyVals)
		g, ok := groups[key]
		if !ok {
			first := newRowEnv(work.refs, work.schemas)
			first.rows = combo
			g = &group{firstEnv: first, accs: make([]*aggAccumulator, len(calls))}
			for i, c := range calls {
				g.accs[i] = newAggAccumulator(c)
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
		empty := newRowEnv(work.refs, work.schemas)
		for ti, schema := range work.schemas {
			empty.rows[ti] = make([]Value, len(schema))
		}
		g := &group{firstEnv: empty, accs: make([]*aggAccumulator, len(calls))}
		for i, c := range calls {
			g.accs[i] = newAggAccumulator(c)
		}
		order = append(order, g)
	}

	res := &Result{Columns: cols}
	var envs []evalEnv
	for _, g := range order {
		aggs := make(map[*CallExpr]Value, len(calls))
		for i, c := range calls {
			aggs[c] = g.accs[i].result()
		}
		genv := &groupEnv{first: g.firstEnv, aggs: aggs}
		if s.Having != nil {
			v, err := eval(s.Having, genv)
			if err != nil {
				return nil, nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		row := make([]Value, len(s.Items))
		for i, item := range s.Items {
			v, err := eval(item.Expr, genv)
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

// aggAccumulator folds rows into one aggregate value.
type aggAccumulator struct {
	fn       string
	count    int64
	sum      float64
	sumIsInt bool
	intSum   int64
	min, max Value
	distinct map[Value]bool
}

func newAggAccumulator(c *CallExpr) *aggAccumulator {
	acc := &aggAccumulator{fn: c.Func, sumIsInt: true}
	if c.Distinct {
		acc.distinct = make(map[Value]bool)
	}
	return acc
}

func (a *aggAccumulator) add(c *CallExpr, env evalEnv) error {
	if c.Star {
		a.count++
		return nil
	}
	v, err := eval(c.Arg, env)
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
func outputColumns(s *SelectStmt, work *joinedRows) ([]string, error) {
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
	return out, nil
}

func projectRow(s *SelectStmt, work *joinedRows, env *rowEnv) ([]Value, error) {
	var row []Value
	for _, item := range s.Items {
		if item.Star {
			for ti := range work.schemas {
				row = append(row, env.rows[ti]...)
			}
			continue
		}
		v, err := eval(item.Expr, env)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

func dedupe(res *Result, envs []evalEnv) (*Result, []evalEnv) {
	seen := make(map[Value]bool, len(res.Rows))
	out := res.Rows[:0]
	var outEnvs []evalEnv
	for i, row := range res.Rows {
		k := tupleKey(row)
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

// orderResult sorts rows by the ORDER BY keys. Keys are evaluated in each
// row's originating environment; a key that is a bare name matching an
// output column falls back to that column, so aliases are orderable.
func orderResult(s *SelectStmt, res *Result, envs []evalEnv) error {
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
			v, err := eval(ok.Expr, envs[i])
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
