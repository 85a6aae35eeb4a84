package relstore

import (
	"fmt"
	"runtime"
	"sync"
)

// The conjunctive query planner, the one SELECT executor.
//
// The compound shapes the vulndb workload issues — `ON a.x = b.x AND
// a.y < b.y`, `WHERE t.col = 'lit' AND ...` over multi-join queries —
// would run as nested loops over unfiltered tables if ON and WHERE were
// evaluated whole. The planner decomposes both clauses into AND
// conjuncts and plans around them, for joins of any width:
//
//   - WHERE conjuncts referencing a single table push down into that
//     table's base scan, narrowed through the primary key or a hash
//     index when a `col = literal` conjunct allows it.
//   - ON conjuncts of the form `prefix expr = new-table expr` become
//     (possibly multi-column) hash-join keys; ON conjuncts local to the
//     joined table filter its build side; everything else becomes a
//     residual predicate evaluated during the probe.
//   - Multi-table WHERE conjuncts attach to the earliest join that
//     binds all their tables, so they also prune during the probe.
//   - An unfiltered build side over a single indexed (or primary-key)
//     column reuses the stored index instead of rehashing the table.
//   - The probe phase shards the outer working set across the
//     database's worker pool (see SetParallelism); shard outputs
//     concatenate in shard order, so results are byte-identical to the
//     serial run at any worker count.

// minProbeParallelItems is the working-set size below which sharding
// the probe is not worth the goroutine fan-out.
const minProbeParallelItems = 64

// tableSpan is the lowest and highest position, in the FROM/JOIN table
// list, of the tables an expression references. The planner only asks
// whether that set is empty, holds exactly one table, or which table
// is highest, so two positions answer for joins of any width.
type tableSpan struct{ lo, hi int }

func (s tableSpan) empty() bool { return s.hi < 0 }

// only reports whether the span holds exactly table ti.
func (s tableSpan) only(ti int) bool { return s.lo == ti && s.hi == ti }

// exprTables returns the span of tables an expression references,
// resolving unqualified names through env (which must already have
// validated the expression, so ambiguous names cannot reach here).
func exprTables(e Expr, env *rowEnv) tableSpan {
	span := tableSpan{lo: len(env.refs), hi: -1}
	add := func(ti int) {
		span.lo, span.hi = min(span.lo, ti), max(span.hi, ti)
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *ColumnExpr:
			if x.Table == "" {
				if pos, ok := env.unique[x.Column]; ok {
					add(pos[0])
				}
				return
			}
			for ti, ref := range env.refs {
				if ref.Name() == x.Table {
					add(ti)
					return
				}
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
		case *CallExpr:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	walk(e)
	return span
}

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e Expr, dst []Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		dst = splitConjuncts(b.Left, dst)
		return splitConjuncts(b.Right, dst)
	}
	return append(dst, e)
}

// joinPlan is the decomposed form of one JOIN clause.
type joinPlan struct {
	// leftKeys/rightKeys are the paired equi-join key expressions:
	// leftKeys[i] binds to the tables joined so far, rightKeys[i] to the
	// incoming table. Empty when the ON clause has no usable equality
	// (the probe then degenerates to a filtered nested loop).
	leftKeys, rightKeys []Expr
	// buildFilter holds conjuncts local to the incoming table (from ON
	// and pushed WHERE), applied to its rows before hashing.
	buildFilter []Expr
	// residual holds the remaining ON conjuncts plus any WHERE conjunct
	// whose tables are all bound once this join lands; they run against
	// each candidate combined row during the probe.
	residual []Expr
}

// selectPlan is the full decomposition of a SELECT's FROM/JOIN/WHERE.
type selectPlan struct {
	refs    []TableRef
	tables  []*table
	schemas [][]ColumnDef
	// basePreds are single-table WHERE conjuncts on the FROM table.
	basePreds []Expr
	joins     []joinPlan
	// residual holds WHERE conjuncts referencing no table at all
	// (constants); they apply once after the joins.
	residual []Expr
}

// planSelect validates the query and decomposes it: each ON clause
// against its prefix of tables, then the full select list and WHERE
// against all tables.
func (db *DB) planSelect(s *SelectStmt) (*selectPlan, error) {
	p := &selectPlan{
		refs:    make([]TableRef, 1+len(s.Joins)),
		tables:  make([]*table, 1+len(s.Joins)),
		schemas: make([][]ColumnDef, 1+len(s.Joins)),
		joins:   make([]joinPlan, len(s.Joins)),
	}
	base, ok := db.tables[s.From.Table]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", s.From.Table)
	}
	p.refs[0], p.tables[0], p.schemas[0] = s.From, base, base.cols
	for i, join := range s.Joins {
		t, ok := db.tables[join.Table.Table]
		if !ok {
			return nil, fmt.Errorf("relstore: no table %q", join.Table.Table)
		}
		p.refs[i+1], p.tables[i+1], p.schemas[i+1] = join.Table, t, t.cols
	}

	prefixEnvs := make([]*rowEnv, len(s.Joins))
	for k, join := range s.Joins {
		env := newRowEnv(p.refs[:k+2], p.schemas[:k+2])
		if err := validateFilter(join.On, env, "ON"); err != nil {
			return nil, err
		}
		prefixEnvs[k] = env
	}
	fullEnv := newRowEnv(p.refs, p.schemas)
	if err := validateSelect(s, fullEnv); err != nil {
		return nil, err
	}

	// Classify WHERE conjuncts: single-table ones push into that
	// table's scan, multi-table ones attach to the join completing
	// their table set, constants stay residual.
	pushed := make([][]Expr, len(p.tables))
	if s.Where != nil {
		for _, c := range splitConjuncts(s.Where, nil) {
			span := exprTables(c, fullEnv)
			switch {
			case span.empty():
				p.residual = append(p.residual, c)
			case span.lo == span.hi:
				pushed[span.lo] = append(pushed[span.lo], c)
			default:
				p.joins[span.hi-1].residual = append(p.joins[span.hi-1].residual, c)
			}
		}
	}
	p.basePreds = pushed[0]

	// Decompose each ON clause against its prefix environment.
	for k, join := range s.Joins {
		jp := &p.joins[k]
		newIdx := k + 1
		for _, c := range splitConjuncts(join.On, nil) {
			if exprTables(c, prefixEnvs[k]).only(newIdx) {
				jp.buildFilter = append(jp.buildFilter, c)
				continue
			}
			if l, r, ok := equiConjunct(c, prefixEnvs[k], newIdx); ok {
				jp.leftKeys = append(jp.leftKeys, l)
				jp.rightKeys = append(jp.rightKeys, r)
				continue
			}
			jp.residual = append(jp.residual, c)
		}
		// Pushed WHERE conjuncts on the incoming table filter its build
		// side together with the table-local ON conjuncts.
		jp.buildFilter = append(jp.buildFilter, pushed[newIdx]...)
	}
	return p, nil
}

// equiConjunct recognizes `prefixExpr = newExpr` (either orientation):
// an equality whose sides bind one to the incoming table newIdx only and
// one to previously joined tables only. env holds tables 0..newIdx, so
// a side binds to earlier tables only when its highest table is below
// newIdx.
func equiConjunct(c Expr, env *rowEnv, newIdx int) (left, right Expr, ok bool) {
	b, isBin := c.(*BinaryExpr)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	ls, rs := exprTables(b.Left, env), exprTables(b.Right, env)
	earlier := func(s tableSpan) bool { return !s.empty() && s.hi < newIdx }
	switch {
	case earlier(ls) && rs.only(newIdx):
		return b.Left, b.Right, true
	case earlier(rs) && ls.only(newIdx):
		return b.Right, b.Left, true
	default:
		return nil, nil, false
	}
}

// execPlanned executes a SELECT against its compiled plan (bound from
// the plan cache).
func (db *DB) execPlanned(s *SelectStmt, plan *selectPlan) (*Result, error) {
	baseRows, err := scanCandidates(plan.tables[0], plan.refs[0], plan.basePreds)
	if err != nil {
		return nil, err
	}
	work := &joinedRows{
		refs:    plan.refs[:1],
		schemas: plan.schemas[:1],
		combos:  make([][][]Value, len(baseRows)),
	}
	// Each one-table combo is a window on baseRows (possibly the table's
	// own row slice): capped at one, so nothing appends through it, and
	// no executor writes a combo in place.
	for i := range baseRows {
		work.combos[i] = baseRows[i : i+1 : i+1]
	}

	for k := range plan.joins {
		next, err := db.execPlannedJoin(work, plan, k)
		if err != nil {
			return nil, err
		}
		work = next
	}

	filtered := work.combos
	if len(plan.residual) > 0 {
		env := newRowEnv(work.refs, work.schemas)
		filtered = nil
		for _, combo := range work.combos {
			env.rows = combo
			keep := true
			for _, c := range plan.residual {
				v, err := eval(c, env)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					keep = false
					break
				}
			}
			if keep {
				filtered = append(filtered, combo)
			}
		}
	}
	return db.finishSelect(s, work, filtered)
}

// scanCandidates returns a table's rows filtered through preds, using
// the primary key or a hash index to narrow the scan when a `col =
// literal` conjunct allows it. The index is purely an accelerator:
// every pred is still evaluated, so semantics (NULL equality, numeric
// cross-kind comparisons) stay with eval.
func scanCandidates(t *table, ref TableRef, preds []Expr) ([][]Value, error) {
	if len(preds) == 0 {
		return t.rows, nil
	}
	rows := t.rows
	if col, val, ok := indexedEqualityPred(preds, t, ref); ok {
		rows = t.rowsByKey(col, val)
	}
	env := newRowEnv([]TableRef{ref}, [][]ColumnDef{t.cols})
	var out [][]Value
	for _, row := range rows {
		env.set(0, row)
		keep := true
		for _, p := range preds {
			v, err := eval(p, env)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
}

// indexedEqualityPred finds a `col = literal` conjunct over a column
// that has a primary key or hash index, preferring indexed columns.
func indexedEqualityPred(preds []Expr, t *table, ref TableRef) (string, Value, bool) {
	pkCol := ""
	var pkVal Value
	for _, p := range preds {
		b, ok := p.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		colExpr, lit := b.Left, b.Right
		if _, isCol := colExpr.(*ColumnExpr); !isCol {
			colExpr, lit = lit, colExpr
		}
		ce, okCol := colExpr.(*ColumnExpr)
		le, okLit := lit.(*LiteralExpr)
		if !okCol || !okLit {
			continue
		}
		if ce.Table != "" && ce.Table != ref.Name() {
			continue
		}
		if _, exists := t.colIdx[ce.Column]; !exists {
			continue
		}
		if _, ok := t.indexes[ce.Column]; ok {
			return ce.Column, le.Value, true
		}
		if pkCol == "" && t.pkCol >= 0 && t.cols[t.pkCol].Name == ce.Column {
			pkCol, pkVal = ce.Column, le.Value
		}
	}
	if pkCol != "" {
		return pkCol, pkVal, true
	}
	return "", Value{}, false
}

// rowsByKey returns the rows whose col equals val, through the column's
// hash index or the primary key. Must only be called for columns
// reported by indexedEqualityPred.
func (t *table) rowsByKey(col string, val Value) [][]Value {
	if idx, ok := t.indexes[col]; ok {
		positions := idx[val.mapKey()]
		out := make([][]Value, len(positions))
		for i, p := range positions {
			out[i] = t.rows[p]
		}
		return out
	}
	if ri, ok := t.pk[val.mapKey()]; ok {
		return t.rows[ri : ri+1]
	}
	return nil
}

// buildSide is the hashed right-hand side of one join.
type buildSide struct {
	rows [][]Value
	// multi maps the join key's tupleKey to positions in rows; nil when
	// pk serves.
	multi map[Value][]int
	// pk maps key -> single position (primary-key build side).
	pk map[Value]int
	// all lists every position, for the no-equi-key nested fallback.
	all []int
}

// prepareBuild filters and hashes the incoming table. When the build
// side is the whole table and the single join key is a stored index (or
// the primary key), the index is reused as-is.
func prepareBuild(t *table, ref TableRef, jp *joinPlan) (*buildSide, error) {
	cand := t.rows
	if len(jp.buildFilter) > 0 {
		var err error
		cand, err = scanCandidates(t, ref, jp.buildFilter)
		if err != nil {
			return nil, err
		}
	}
	b := &buildSide{rows: cand}

	if len(jp.leftKeys) == 0 {
		b.all = make([]int, len(cand))
		for i := range b.all {
			b.all[i] = i
		}
		return b, nil
	}

	// Index reuse: unfiltered single bare-column key.
	if len(jp.rightKeys) == 1 && len(jp.buildFilter) == 0 {
		if ce, ok := jp.rightKeys[0].(*ColumnExpr); ok {
			if idx, ok := t.indexes[ce.Column]; ok {
				b.multi = idx
				return b, nil
			}
			if t.pkCol >= 0 && t.cols[t.pkCol].Name == ce.Column {
				b.pk = t.pk
				return b, nil
			}
		}
	}

	env := newRowEnv([]TableRef{ref}, [][]ColumnDef{t.cols})
	b.multi = make(map[Value][]int, len(cand))
	vals := make([]Value, len(jp.rightKeys))
	for ri, row := range cand {
		env.set(0, row)
		key, ok, err := evalJoinKey(jp.rightKeys, env, vals)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		b.multi[key] = append(b.multi[key], ri)
	}
	return b, nil
}

// evalJoinKey evaluates the join key expressions into vals (one slot
// per key) and returns their tupleKey. ok is false when any component
// is NULL (NULL joins nothing, as NULL = x is never true).
func evalJoinKey(keys []Expr, env evalEnv, vals []Value) (Value, bool, error) {
	for i, e := range keys {
		v, err := eval(e, env)
		if err != nil || v.IsNull() {
			return Value{}, false, err
		}
		vals[i] = v
	}
	return tupleKey(vals), true, nil
}

// execPlannedJoin extends the working set with join k of the plan,
// probing the build side across the worker pool.
func (db *DB) execPlannedJoin(work *joinedRows, plan *selectPlan, k int) (*joinedRows, error) {
	newIdx := k + 1
	t, ref := plan.tables[newIdx], plan.refs[newIdx]
	jp := &plan.joins[k]
	next := &joinedRows{
		refs:    plan.refs[:newIdx+1],
		schemas: plan.schemas[:newIdx+1],
	}
	build, err := prepareBuild(t, ref, jp)
	if err != nil {
		return nil, err
	}

	probe := func(combos [][][]Value) ([][][]Value, error) {
		leftEnv := newRowEnv(work.refs, work.schemas)
		extEnv := newRowEnv(next.refs, next.schemas)
		scratch := make([][]Value, len(work.refs)+1)
		vals := make([]Value, len(jp.leftKeys))
		var one [1]int
		var out [][][]Value
		for _, combo := range combos {
			var positions []int
			switch {
			case build.all != nil:
				positions = build.all
			default:
				leftEnv.rows = combo
				key, ok, err := evalJoinKey(jp.leftKeys, leftEnv, vals)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				if build.pk != nil {
					ri, hit := build.pk[key]
					if !hit {
						continue
					}
					one[0] = ri
					positions = one[:]
				} else {
					positions = build.multi[key]
				}
			}
			for _, ri := range positions {
				row := build.rows[ri]
				if len(jp.residual) > 0 {
					copy(scratch, combo)
					scratch[len(combo)] = row
					extEnv.rows = scratch
					keep := true
					for _, c := range jp.residual {
						v, err := eval(c, extEnv)
						if err != nil {
							return nil, err
						}
						if !truthy(v) {
							keep = false
							break
						}
					}
					if !keep {
						continue
					}
				}
				extended := make([][]Value, len(combo)+1)
				copy(extended, combo)
				extended[len(combo)] = row
				out = append(out, extended)
			}
		}
		return out, nil
	}

	workers := db.Parallelism()
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	if workers <= 1 || len(work.combos) < minProbeParallelItems {
		next.combos, err = probe(work.combos)
		return next, err
	}

	if workers > len(work.combos) {
		workers = len(work.combos)
	}
	chunk := (len(work.combos) + workers - 1) / workers
	nShards := (len(work.combos) + chunk - 1) / chunk
	outs := make([][][][]Value, nShards)
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for i := 0; i < nShards; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(work.combos) {
			hi = len(work.combos)
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			outs[i], errs[i] = probe(work.combos[lo:hi])
		}(i, lo, hi)
	}
	wg.Wait()
	total := 0
	for i := 0; i < nShards; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += len(outs[i])
	}
	next.combos = make([][][]Value, 0, total)
	for _, o := range outs {
		next.combos = append(next.combos, o...)
	}
	return next, nil
}
