package relstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestNormalizeSQL: literals canonicalize to placeholders (typed slots),
// user placeholders survive as user slots, LIMIT operands and LIKE
// patterns stay literal, and cosmetically different texts normalize to
// one shape. Every shape must itself parse.
func TestNormalizeSQL(t *testing.T) {
	cases := []struct {
		in, shape string
		lits      []Value
		user      int
	}{
		{
			`SELECT id FROM ev WHERE os_id = 3 AND name = 'x''y'`,
			`SELECT id FROM ev WHERE os_id = ? AND name = ?`,
			[]Value{Int(3), Text("x'y")}, 0,
		},
		{
			`SELECT * FROM t ORDER BY id LIMIT 5`,
			`SELECT * FROM t ORDER BY id LIMIT 5`,
			nil, 0,
		},
		{
			`SELECT v FROM t WHERE v LIKE 'a%' AND k = 7`,
			`SELECT v FROM t WHERE v LIKE 'a%' AND k = ?`,
			[]Value{Int(7)}, 0,
		},
		{
			`SELECT v FROM t WHERE k = ? AND w = 1.5`,
			`SELECT v FROM t WHERE k = ? AND w = ?`,
			[]Value{Float(1.5)}, 1,
		},
		{
			"SELECT v FROM t -- trailing comment\nWHERE k=2;",
			`SELECT v FROM t WHERE k = ?`,
			[]Value{Int(2)}, 0,
		},
		{
			`select V from T where K = 2`,
			`SELECT v FROM t WHERE k = ?`,
			[]Value{Int(2)}, 0,
		},
	}
	for _, tt := range cases {
		shape, slots, err := normalizeSQL(tt.in)
		if err != nil {
			t.Fatalf("normalizeSQL(%q): %v", tt.in, err)
		}
		if shape != tt.shape {
			t.Errorf("normalizeSQL(%q) shape = %q, want %q", tt.in, shape, tt.shape)
		}
		if got := countUserSlots(slots); got != tt.user {
			t.Errorf("normalizeSQL(%q) user slots = %d, want %d", tt.in, got, tt.user)
		}
		var lits []Value
		for _, s := range slots {
			if !s.user {
				lits = append(lits, s.lit)
			}
		}
		if len(lits) != len(tt.lits) {
			t.Fatalf("normalizeSQL(%q) extracted %d literals, want %d", tt.in, len(lits), len(tt.lits))
		}
		for i := range lits {
			if lits[i].Kind() != tt.lits[i].Kind() || !lits[i].Equal(tt.lits[i]) {
				t.Errorf("normalizeSQL(%q) literal %d = %v, want %v", tt.in, i, lits[i], tt.lits[i])
			}
		}
		if _, err := ParseSelect(shape); err != nil {
			t.Errorf("shape %q does not parse: %v", shape, err)
		}
	}
}

// TestCachedPlanIdentity: the cached-plan path answers every planner
// query byte-identically to the oracle executor, at worker counts 1 and
// 4, on the run that compiles the plan and on repeat runs that hit the
// cache.
func TestCachedPlanIdentity(t *testing.T) {
	db := plannerFixture(t)
	for _, q := range plannerQueries {
		naive, err := db.queryNaive(q)
		if err != nil {
			t.Fatalf("naive Query(%q): %v", q, err)
		}
		for _, workers := range []int{1, 4} {
			db.SetParallelism(workers)
			for run := 0; run < 3; run++ { // run 1+ replays the cached plan
				got, err := db.Query(q)
				if err != nil {
					t.Fatalf("cached Query(%q) workers=%d run=%d: %v", q, workers, run, err)
				}
				if !resultsEqual(naive, got) {
					t.Errorf("cached plan diverges on %q (workers=%d run=%d):\nnaive  %v\ncached %v",
						q, workers, run, naive.Rows, got.Rows)
				}
			}
		}
	}
	if st := db.PlanCacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("identity suite produced no cache traffic: %+v", st)
	}
}

// TestCachedPlanIdentityParameterized: the same identity, with caller
// arguments merged into the extracted-literal slots, and one shape
// serving different literal variants.
func TestCachedPlanIdentityParameterized(t *testing.T) {
	db := plannerFixture(t)
	queries := []struct {
		q    string
		args []Value
	}{
		{`SELECT id FROM ev WHERE os_id = ? AND sev > ? ORDER BY id`, []Value{Int(3), Int(4)}},
		{`SELECT e.id, o.name FROM ev e JOIN osd o ON e.os_id = o.id
		  WHERE o.family = ? AND e.sev >= ? ORDER BY e.id`, []Value{Text("Linux"), Int(5)}},
		{`SELECT COUNT(*) FROM ev WHERE tag LIKE 't%' AND sev < ?`, []Value{Int(8)}},
		{`SELECT id FROM ev WHERE os_id IN (?, ?, 5) ORDER BY id LIMIT 9`, []Value{Int(1), Int(3)}},
	}
	for _, tt := range queries {
		naive, err := db.queryNaive(tt.q, tt.args...)
		if err != nil {
			t.Fatalf("naive Query(%q): %v", tt.q, err)
		}
		for _, workers := range []int{1, 4} {
			db.SetParallelism(workers)
			for run := 0; run < 2; run++ {
				got, err := db.Query(tt.q, tt.args...)
				if err != nil {
					t.Fatalf("cached Query(%q): %v", tt.q, err)
				}
				if !resultsEqual(naive, got) {
					t.Errorf("cached parameterized plan diverges on %q (workers=%d)", tt.q, workers)
				}
			}
		}
	}
	// Literal variants of one shape share a single cache entry and still
	// answer per-variant results.
	sizeBefore := db.PlanCacheStats().Size
	var counts []int
	for sev := 0; sev < 4; sev++ {
		res, err := db.Query(fmt.Sprintf(`SELECT id FROM ev WHERE sev = %d ORDER BY id`, sev))
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(res.Rows))
	}
	if got := db.PlanCacheStats().Size; got != sizeBefore+1 {
		t.Errorf("4 literal variants grew the cache by %d entries, want 1", got-sizeBefore)
	}
	for sev := 0; sev < 4; sev++ {
		want, err := db.queryNaive(fmt.Sprintf(`SELECT id FROM ev WHERE sev = %d ORDER BY id`, sev))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != counts[sev] {
			t.Errorf("shared shape answered %d rows for sev=%d, naive says %d", counts[sev], sev, len(want.Rows))
		}
	}
}

// TestPrepareStmt covers the prepared-statement surface: repeated
// execution with different arguments, QueryInt, argument-count
// enforcement, and non-SELECT rejection.
func TestPrepareStmt(t *testing.T) {
	db := plannerFixture(t)
	st, err := db.Prepare(`SELECT COUNT(*) FROM ev WHERE os_id = ? AND sev > 2`)
	if err != nil {
		t.Fatal(err)
	}
	for osID := int64(0); osID < 4; osID++ {
		got, err := st.QueryInt(Int(osID))
		if err != nil {
			t.Fatalf("prepared QueryInt(os_id=%d): %v", osID, err)
		}
		want, err := db.QueryInt(`SELECT COUNT(*) FROM ev WHERE os_id = ? AND sev > 2`, Int(osID))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("prepared count(os_id=%d) = %d, ad-hoc says %d", osID, got, want)
		}
	}
	if _, err := st.Query(); err == nil {
		t.Error("missing argument accepted by prepared statement")
	}
	if _, err := st.Query(Int(1), Int(2)); err == nil {
		t.Error("extra argument accepted by prepared statement")
	}
	if _, err := db.Prepare(`DELETE FROM ev WHERE id = ?`); !errors.Is(err, ErrNotSelect) {
		t.Errorf("Prepare(DELETE) = %v, want ErrNotSelect", err)
	}
	if _, err := db.Prepare(`SELECT nope FROM`); err == nil {
		t.Error("Prepare accepted a malformed statement")
	}
}

// TestPlanCacheLRUChurn: at capacity 2, N distinct shapes keep the
// cache bounded, evictions are counted, and an evicted shape re-plans
// correctly on its next use.
func TestPlanCacheLRUChurn(t *testing.T) {
	db := plannerFixture(t)
	db.plans = newPlanCache(2)
	base := db.PlanCacheStats()
	shapes := make([]string, 5)
	want := make([]int, 5)
	for i := range shapes {
		// Distinct LIMITs keep the shapes distinct (LIMIT stays literal).
		shapes[i] = fmt.Sprintf(`SELECT id FROM ev WHERE sev >= 0 ORDER BY id LIMIT %d`, i+1)
		res, err := db.Query(shapes[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(res.Rows)
		if st := db.PlanCacheStats(); st.Size > 2 {
			t.Fatalf("cache size %d exceeds capacity 2", st.Size)
		}
	}
	st := db.PlanCacheStats()
	if st.Evictions-base.Evictions < 3 {
		t.Errorf("5 shapes at capacity 2 evicted %d plans, want >= 3", st.Evictions-base.Evictions)
	}
	// shapes[0] was evicted long ago: its replay must miss, re-plan and
	// still answer the same rows.
	missesBefore := db.PlanCacheStats().Misses
	res, err := db.Query(shapes[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != want[0] {
		t.Errorf("re-planned evicted shape answered %d rows, want %d", len(res.Rows), want[0])
	}
	if db.PlanCacheStats().Misses == missesBefore {
		t.Error("evicted shape did not count a miss on replay")
	}
	if st := db.PlanCacheStats(); st.Size > 2 {
		t.Fatalf("cache size %d exceeds capacity 2 after replay", st.Size)
	}
}

// TestPlanCacheStatsAndSharing: repeated and cosmetically different
// texts of one shape count hits against one cached entry.
func TestPlanCacheStatsAndSharing(t *testing.T) {
	db := plannerFixture(t)
	base := db.PlanCacheStats()
	if _, err := db.Query(`SELECT id FROM ev WHERE sev = 1 ORDER BY id`); err != nil {
		t.Fatal(err)
	}
	// Different literal, case and spacing: same shape, must hit.
	if _, err := db.Query("select id  from EV\nwhere sev = 2 order by id"); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Misses-base.Misses != 1 {
		t.Errorf("one shape compiled %d times, want 1", st.Misses-base.Misses)
	}
	if st.Hits-base.Hits != 1 {
		t.Errorf("shape replay counted %d hits, want 1", st.Hits-base.Hits)
	}
	shape, _, err := normalizeSQL(`SELECT id FROM ev WHERE sev = 1 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	db.plans.mu.Lock()
	_, found := db.plans.entries[shape]
	db.plans.mu.Unlock()
	if !found {
		t.Errorf("plan cache does not hold %q", shape)
	}
}

// TestPlanCacheDDLInvalidation: CREATE TABLE and CREATE INDEX each
// flush the cache, so no cached plan outlives the schema it was
// compiled against, and held prepared statements transparently
// recompile.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (k INTEGER, v TEXT)`)
	for i := 0; i < 10; i++ {
		mustInsert(t, db, "t", []string{"k", "v"}, []Value{Int(int64(i % 3)), Text(fmt.Sprintf("v%d", i))})
	}
	const q = `SELECT v FROM t WHERE k = 1 ORDER BY v`
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) == 0 {
		t.Fatal("fixture query returned no rows")
	}
	held := st.c.Load()

	for _, ddl := range []string{`CREATE INDEX ON t (k)`, `CREATE TABLE u (k INTEGER)`} {
		inv := db.PlanCacheStats().Invalidations
		mustExec(t, db, ddl)
		if got := db.PlanCacheStats().Invalidations; got != inv+1 {
			t.Errorf("%s: invalidations = %d, want %d", ddl, got, inv+1)
		}
		if db.PlanCacheStats().Size != 0 {
			t.Errorf("%s left plans in the cache", ddl)
		}
		// The held statement recompiles against the new schema and
		// answers the same rows.
		res, err := st.Query()
		if err != nil {
			t.Fatalf("prepared statement after %s: %v", ddl, err)
		}
		if !resultsEqual(first, res) {
			t.Errorf("prepared statement after %s = %v, want %v", ddl, res.Rows, first.Rows)
		}
		if c := st.c.Load(); c == held || c.gen != db.schemaGen.Load() {
			t.Errorf("prepared statement kept its plan across %s", ddl)
		}
		held = st.c.Load()
	}

	// Explicit invalidation (the epoch-swap hook) forces a recompile too.
	inv := db.PlanCacheStats().Invalidations
	db.InvalidatePlans()
	if got := db.PlanCacheStats().Invalidations; got != inv+1 {
		t.Errorf("InvalidatePlans invalidations = %d, want %d", got, inv+1)
	}
	if _, err := st.Query(); err != nil {
		t.Fatalf("prepared statement failed after InvalidatePlans: %v", err)
	}
	if st.c.Load() == held {
		t.Error("prepared statement kept its plan across InvalidatePlans")
	}
}

// TestLikeBindingSharesCompiledProgram: binding a statement whose LIKE
// target holds a placeholder produces fresh LikeExpr copies — they must
// share one compiled program (zero recompiles per bound copy).
func TestLikeBindingSharesCompiledProgram(t *testing.T) {
	sel, err := ParseSelect(`SELECT v FROM s WHERE ? LIKE 'x%'`)
	if err != nil {
		t.Fatal(err)
	}
	like := sel.Where.(*LikeExpr)
	prog := like.program()
	bound, err := bindSelect(sel, []Value{Text("xy")})
	if err != nil {
		t.Fatal(err)
	}
	blike := bound.Where.(*LikeExpr)
	if blike == like {
		t.Fatal("binding a placeholder target must copy the LikeExpr")
	}
	if blike.prog.Load() != prog {
		t.Fatal("bound LikeExpr does not share the compiled program")
	}

	// End to end: N executions of a prepared statement compile at most
	// one program in total.
	db := Open()
	mustExec(t, db, `CREATE TABLE s (v TEXT)`)
	for i := 0; i < 5; i++ {
		mustInsert(t, db, "s", []string{"v"}, []Value{Text(fmt.Sprintf("row%d", i))})
	}
	ps, err := db.Prepare(`SELECT v FROM s WHERE ? LIKE 'a%' ORDER BY v`)
	if err != nil {
		t.Fatal(err)
	}
	before := likeCompiles.Load()
	for i := 0; i < 10; i++ {
		res, err := ps.Query(Text(fmt.Sprintf("a%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("run %d returned %d rows, want 5", i, len(res.Rows))
		}
	}
	if delta := likeCompiles.Load() - before; delta > 1 {
		t.Errorf("10 prepared executions compiled the LIKE pattern %d times, want <= 1", delta)
	}
}

// TestPlanCacheConcurrentRace drives the cached path, a shared prepared
// statement and explicit invalidations from many goroutines; run under
// -race, it proves the cache and the copy-on-write binding are safe.
func TestPlanCacheConcurrentRace(t *testing.T) {
	db := plannerFixture(t)
	db.SetParallelism(4)
	st, err := db.Prepare(`SELECT id FROM ev WHERE os_id = ? AND sev > ? ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch g % 3 {
				case 0:
					if _, err := db.Query(
						`SELECT e.id, o.name FROM ev e JOIN osd o ON e.os_id = o.id AND e.sev > o.tier ORDER BY e.id, o.name`); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := st.Query(Int(int64(i%12)), Int(2)); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := db.Query(fmt.Sprintf(
						`SELECT COUNT(*) FROM ev WHERE sev = %d`, i%10)); err != nil {
						t.Error(err)
						return
					}
					if i%13 == 0 {
						db.InvalidatePlans()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
