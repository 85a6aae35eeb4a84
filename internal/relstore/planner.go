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
//     table's base scan. A `col = literal` conjunct, or one or two of
//     `col <, <=, >, >= literal`, over a column with a sorted index (or
//     the primary key) narrows the scan to a key range; with several
//     such conjuncts the one that selects the fewest rows wins. Every
//     conjunct is still evaluated on every row read.
//   - ON conjuncts of the form `prefix expr = new-table expr` become
//     (possibly multi-column) hash-join keys; ON conjuncts local to the
//     joined table filter its build side; everything else becomes a
//     residual predicate evaluated during the probe.
//   - Multi-table WHERE conjuncts attach to the earliest join that
//     binds all their tables, so they also prune during the probe.
//   - An unfiltered build side over a single indexed (or primary-key)
//     column probes the stored index instead of hashing the table.
//   - The working set is one flat array of row-id tuples, one id per
//     table joined so far. The probe phase shards it across the
//     database's worker pool (see SetParallelism); each shard writes
//     its own tuple array and the arrays concatenate in shard order, so
//     results are byte-identical to the serial run at any worker count.
//     Cells are read from the columns only where an expression needs
//     them.

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
// through the positions validation recorded on its columns.
func exprTables(e Expr) tableSpan {
	span := tableSpan{lo: 1 << 30, hi: -1}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *ColumnExpr:
			if x.at.ok {
				ti := int(x.at.table)
				span.lo, span.hi = min(span.lo, ti), max(span.hi, ti)
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

	for k, join := range s.Joins {
		if err := validateFilter(join.On, newScope(p.refs[:k+2], p.schemas[:k+2]), "ON"); err != nil {
			return nil, err
		}
	}
	if err := validateSelect(s, newScope(p.refs, p.schemas)); err != nil {
		return nil, err
	}

	// Classify WHERE conjuncts: single-table ones push into that
	// table's scan, multi-table ones attach to the join completing
	// their table set, constants stay residual.
	pushed := make([][]Expr, len(p.tables))
	if s.Where != nil {
		for _, c := range splitConjuncts(s.Where, nil) {
			span := exprTables(c)
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
			if exprTables(c).only(newIdx) {
				jp.buildFilter = append(jp.buildFilter, c)
				continue
			}
			if l, r, ok := equiConjunct(c, newIdx); ok {
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
// one to previously joined tables only. An ON clause sees tables
// 0..newIdx, so a side binds to earlier tables only when its highest
// table is below newIdx.
func equiConjunct(c Expr, newIdx int) (left, right Expr, ok bool) {
	b, isBin := c.(*BinaryExpr)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	ls, rs := exprTables(b.Left), exprTables(b.Right)
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
	work, err := plan.candidates(0, plan.basePreds)
	if err != nil {
		return nil, err
	}
	for k := range plan.joins {
		if work, err = db.execPlannedJoin(work, plan, k); err != nil {
			return nil, err
		}
	}
	if len(plan.residual) > 0 {
		// Filter in place: work is the executor's own array.
		w := len(plan.tables)
		en := &env{tables: plan.tables, ids: make([]int32, w)}
		kept := work[:0]
		for off := 0; off < len(work); off += w {
			copy(en.ids, work[off:off+w])
			ok, err := holds(plan.residual, en)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, work[off:off+w]...)
			}
		}
		work = kept
	}
	return finishSelect(s, plan, work)
}

// candidates returns, ascending, the ids of table ti's rows for which
// every pred holds, in a new array. A sorted index narrows the rows
// read when a pred allows it (see narrow); it is purely an
// accelerator, so semantics (NULL equality, NaN, cross-kind
// comparisons) stay with eval.
func (p *selectPlan) candidates(ti int, preds []Expr) ([]int32, error) {
	t := p.tables[ti]
	if len(preds) == 0 {
		ids := make([]int32, t.n)
		for i := range ids {
			ids[i] = int32(i)
		}
		return ids, nil
	}
	ints, rest := splitIntPreds(t, ti, preds)
	en := &env{tables: p.tables, ids: make([]int32, ti+1)}
	var out []int32
	keep := func(r int32) error {
		for _, ip := range ints {
			if !ip.holds(r) {
				return nil
			}
		}
		en.ids[ti] = r
		ok, err := holds(rest, en)
		if ok {
			out = append(out, r)
		}
		return err
	}
	if rows, ok := narrow(t, ti, preds); ok {
		for _, r := range rows {
			if err := keep(r); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for r := range t.n {
		if err := keep(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// intPred is a conjunct `col op literal` over an INTEGER or TIMESTAMP
// column and a literal of the column's kind, tested on the column's
// int64s as eval would answer it: false on a NULL row, else the int64
// comparison. eval builds two cells and walks the expression for each
// row; intPred skips both for the id and year filters that make up
// most of the vulndb schema's SQL.
type intPred struct {
	col *column
	op  string
	x   int64
}

func (p intPred) holds(r int32) bool {
	if p.col.null(r) {
		return false
	}
	v := p.col.ints[r]
	switch p.op {
	case "=":
		return v == p.x
	case "<>":
		return v != p.x
	case "<":
		return v < p.x
	case "<=":
		return v <= p.x
	case ">":
		return v > p.x
	default:
		return v >= p.x
	}
}

// splitIntPreds separates the conjuncts over table ti that intPred can
// test from the rest, which eval tests.
func splitIntPreds(t *table, ti int, preds []Expr) (ints []intPred, rest []Expr) {
	for _, p := range preds {
		ci, op, v, ok := keyPred(p, ti)
		if ok && v.kind == t.cols[ci].Kind && (v.kind == KindInt || v.kind == KindTime) {
			ints = append(ints, intPred{col: &t.vecs[ci], op: op, x: int64(v.n)})
			continue
		}
		rest = append(rest, p)
	}
	return ints, rest
}

// narrow returns, ascending, a superset of the rows of table ti (t)
// that satisfy preds, read from a sorted index: each `col = literal`
// conjunct over an indexed column is one candidate list, and the
// `col <, <=, >, >= literal` conjuncts over one indexed column (the
// first lower and the first upper bound) form one key range. The
// shortest list wins. ok is false when no conjunct is index-served; a
// bound an index cannot order (see orderable) never is. The slice may
// alias the index.
func narrow(t *table, ti int, preds []Expr) (rows []int32, ok bool) {
	type candidate struct {
		ix *index
		r  keyRange
	}
	var cands []candidate
	for _, p := range preds {
		ci, op, v, ok := keyPred(p, ti)
		if !ok || op == "<>" || !orderable(t.cols[ci].Kind, v) {
			continue
		}
		ix := t.indexOn(ci)
		if ix == nil {
			continue
		}
		if op == "=" {
			cands = append(cands, candidate{ix: ix, r: keyRange{eq: true, lo: bound{v: v, set: true}}})
			continue
		}
		at := -1
		for i := range cands {
			if cands[i].ix == ix && !cands[i].r.eq {
				at = i
			}
		}
		if at < 0 {
			at = len(cands)
			cands = append(cands, candidate{ix: ix})
		}
		b := bound{v: v, inclusive: op == "<=" || op == ">=", set: true}
		if r := &cands[at].r; op == ">" || op == ">=" {
			if !r.lo.set {
				r.lo = b
			}
		} else if !r.hi.set {
			r.hi = b
		}
	}
	best, least := -1, 0
	for i := range cands {
		c := &cands[i]
		if n := c.ix.count(&t.vecs[c.ix.col], &c.r); best < 0 || n < least {
			best, least = i, n
		}
	}
	if best < 0 {
		return nil, false
	}
	c := &cands[best]
	return c.ix.rows(&t.vecs[c.ix.col], &c.r), true
}

// keyPred recognizes `col op literal` (either orientation) with op one
// of =, <>, <, <=, >, >= and col a column of table ti, returning the
// comparison as seen from the column.
func keyPred(p Expr, ti int) (ci int, op string, v Value, ok bool) {
	b, isBin := p.(*BinaryExpr)
	if !isBin {
		return 0, "", Value{}, false
	}
	col, isCol := b.Left.(*ColumnExpr)
	lit, isLit := b.Right.(*LiteralExpr)
	op = b.Op
	if !isCol {
		col, isCol = b.Right.(*ColumnExpr)
		lit, isLit = b.Left.(*LiteralExpr)
		op = map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
	}
	switch {
	case !isCol || !isLit || !col.at.ok || int(col.at.table) != ti:
		return 0, "", Value{}, false
	case op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" || op == ">=":
		return int(col.at.col), op, lit.Value, true
	default:
		return 0, "", Value{}, false
	}
}

// buildSide is the incoming table of one join, ready to probe.
type buildSide struct {
	// rows lists the build side's rows, ascending: the rows the nested
	// loop reads when the join has no equi key, else the rows hashed.
	rows []int32
	// ints (one INTEGER column key) or head (any other key, by its
	// encoding, see appendKey) maps a key to the position in rows of
	// the first row with that key; next chains the others, ascending,
	// and ends at -1. Every join of the vulndb schema is on one INTEGER
	// id, which ints hashes without encoding it.
	ints map[int64]int32
	head map[string]int32
	next []int32
	// ix, when set, answers the join's one key through the sorted
	// index of col instead.
	ix  *index
	col *column
}

// prepareBuild filters and hashes the incoming table of join k. When
// the build side is the whole table and the single join key is a
// column with a sorted index (or the primary key), the index answers
// the probes.
func (p *selectPlan) prepareBuild(k int) (*buildSide, error) {
	newIdx := k + 1
	t, jp := p.tables[newIdx], &p.joins[k]
	var ce *ColumnExpr // the join's one key, when it is a bare column
	if len(jp.rightKeys) == 1 {
		ce, _ = jp.rightKeys[0].(*ColumnExpr)
	}
	if ce != nil && len(jp.buildFilter) == 0 {
		if ix := t.indexOn(int(ce.at.col)); ix != nil {
			return &buildSide{ix: ix, col: &t.vecs[ix.col]}, nil
		}
	}
	rows, err := p.candidates(newIdx, jp.buildFilter)
	if err != nil {
		return nil, err
	}
	b := &buildSide{rows: rows}
	if len(jp.leftKeys) == 0 {
		return b, nil
	}
	if ce != nil && t.cols[ce.at.col].Kind == KindInt {
		c := &t.vecs[ce.at.col]
		b.ints, b.next = chain(len(rows), func(i int) (int64, bool) {
			return c.ints[rows[i]], !c.null(rows[i])
		})
		return b, nil
	}
	// Every row's key goes into one arena, so the map keys are
	// substrings of one string rather than one allocation each. A row
	// whose key has a NULL or NaN part joins nothing and keeps an empty
	// key, which no encoding is.
	en := &env{tables: p.tables, ids: make([]int32, newIdx+1)}
	var arena []byte
	ends := make([]int32, len(rows)+1)
	for i, r := range rows {
		en.ids[newIdx] = r
		var ok bool
		if arena, ok, err = appendJoinKey(arena, jp.rightKeys, en); err != nil {
			return nil, err
		}
		if !ok {
			arena = arena[:ends[i]]
		}
		ends[i+1] = int32(len(arena))
	}
	keys := string(arena)
	b.head, b.next = chain(len(rows), func(i int) (string, bool) {
		return keys[ends[i]:ends[i+1]], ends[i] < ends[i+1]
	})
	return b, nil
}

// chain maps each key to the first of rows 0..n-1 that holds it and
// links each row to the next row with its key, -1 after the last; a
// row whose key is not ok holds none.
func chain[K comparable](n int, key func(i int) (K, bool)) (map[K]int32, []int32) {
	head := make(map[K]int32, n)
	next := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		k, ok := key(i)
		if !ok {
			continue
		}
		next[i] = -1
		if h, dup := head[k]; dup {
			next[i] = h
		}
		head[k] = int32(i)
	}
	return head, next
}

// first returns the position in b.rows of the first build row whose
// key equals the join's left keys evaluated in en; buf is scratch for
// the key encoding.
func (b *buildSide) first(keys []Expr, en *env, buf *[]byte) (p int32, hit bool, err error) {
	if b.ints != nil {
		v, err := eval(keys[0], en)
		// Every key is an INTEGER: a NULL, a NaN, a fraction or
		// another kind equals none of them.
		if k := v.mapKey(); err == nil && k.kind == KindInt {
			p, hit = b.ints[int64(k.n)]
		}
		return p, hit, err
	}
	var ok bool
	if *buf, ok, err = appendJoinKey((*buf)[:0], keys, en); err == nil && ok {
		p, hit = b.head[string(*buf)]
	}
	return p, hit, err
}

// appendJoinKey appends the encoding of the join key expressions,
// evaluated in en, to b. ok is false when any part is NULL or NaN: NULL
// = x and NaN = x are never true, so the row joins nothing.
func appendJoinKey(b []byte, keys []Expr, en *env) ([]byte, bool, error) {
	for _, e := range keys {
		v, err := eval(e, en)
		if err != nil || v.IsNull() || v.isNaN() {
			return b, false, err
		}
		b = appendKey(b, v)
	}
	return b, true, nil
}

// execPlannedJoin extends the working set (tuples of k+1 row ids) with
// join k of the plan, probing the build side across the worker pool.
func (db *DB) execPlannedJoin(work []int32, plan *selectPlan, k int) ([]int32, error) {
	w, newIdx := k+1, k+1
	jp := &plan.joins[k]
	build, err := plan.prepareBuild(k)
	if err != nil {
		return nil, err
	}

	probe := func(in []int32) ([]int32, error) {
		en := &env{tables: plan.tables, ids: make([]int32, w+1)}
		out := make([]int32, 0, len(in)+len(in)/w)
		var key []byte
		emit := func(combo []int32, r int32) error {
			en.ids[newIdx] = r
			ok, err := holds(jp.residual, en)
			if ok {
				out = append(out, combo...)
				out = append(out, r)
			}
			return err
		}
		for off := 0; off < len(in); off += w {
			combo := in[off : off+w]
			copy(en.ids, combo)
			switch {
			case build.ix != nil:
				v, err := eval(jp.leftKeys[0], en)
				if err != nil {
					return nil, err
				}
				if !orderable(build.col.kind, v) {
					continue // NULL, NaN or another kind: equal to no key
				}
				for i := range build.ix.runs {
					for _, r := range build.ix.runs[i].find(build.col, v) {
						if err := emit(combo, r); err != nil {
							return nil, err
						}
					}
				}
			case build.next != nil:
				p, hit, err := build.first(jp.leftKeys, en, &key)
				if err != nil {
					return nil, err
				}
				for ; hit && p >= 0; p = build.next[p] {
					if err := emit(combo, build.rows[p]); err != nil {
						return nil, err
					}
				}
			case len(jp.leftKeys) == 0:
				for _, r := range build.rows {
					if err := emit(combo, r); err != nil {
						return nil, err
					}
				}
			}
		}
		return out, nil
	}

	n := len(work) / w
	workers := min(db.Parallelism(), runtime.GOMAXPROCS(0))
	if workers <= 1 || n < minProbeParallelItems {
		return probe(work)
	}
	workers = min(workers, n)
	chunk := (n + workers - 1) / workers
	nShards := (n + chunk - 1) / chunk
	outs := make([][]int32, nShards)
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for i := 0; i < nShards; i++ {
		lo, hi := i*chunk, min((i+1)*chunk, n)
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			outs[i], errs[i] = probe(work[lo*w : hi*w])
		}(i, lo, hi)
	}
	wg.Wait()
	total := 0
	for i := range outs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += len(outs[i])
	}
	next := make([]int32, 0, total)
	for _, o := range outs {
		next = append(next, o...)
	}
	return next, nil
}
