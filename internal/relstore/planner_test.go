package relstore

import (
	"fmt"
	"strings"
	"testing"
)

// plannerFixture builds a three-table fixture with enough rows, skew
// and NULLs to exercise every planner path: indexes, primary keys,
// duplicate join keys, NULL join keys and NULL filter columns.
func plannerFixture(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE ev (id INTEGER PRIMARY KEY, os_id INTEGER, sev INTEGER, tag TEXT)`)
	mustExec(t, db, `CREATE TABLE osd (id INTEGER PRIMARY KEY, name TEXT, family TEXT, tier INTEGER)`)
	mustExec(t, db, `CREATE TABLE link (a INTEGER, b INTEGER, w INTEGER)`)
	families := []string{"BSD", "Linux", "Windows", "Solaris"}
	for i := int64(0); i < 12; i++ {
		mustInsert(t, db, "osd", []string{"id", "name", "family", "tier"},
			[]Value{Int(i), Text(fmt.Sprintf("os%d", i)), Text(families[i%int64(len(families))]), Int(i % 3)})
	}
	for i := int64(0); i < 400; i++ {
		osID := Int(i % 12)
		if i%17 == 0 {
			osID = Null() // NULL join keys must match nothing
		}
		tag := Text(fmt.Sprintf("t%d", i%7))
		if i%13 == 0 {
			tag = Null()
		}
		mustInsert(t, db, "ev", []string{"id", "os_id", "sev", "tag"}, []Value{Int(i), osID, Int(i % 10), tag})
	}
	for i := int64(0); i < 120; i++ {
		mustInsert(t, db, "link", []string{"a", "b", "w"}, []Value{Int(i % 12), Int((i * 5) % 12), Int(i % 4)})
	}
	mustExec(t, db, `CREATE INDEX ON ev (os_id)`)
	mustExec(t, db, `CREATE INDEX ON link (a)`)
	return db
}

// plannerQueries are the shapes the planner must answer byte-identically
// to the oracle executor (oracle_test.go).
var plannerQueries = []string{
	// Single table, pushdown with and without index.
	`SELECT id FROM ev WHERE os_id = 3 AND sev > 4 ORDER BY id`,
	`SELECT id FROM ev WHERE sev = 2 AND tag = 't1'`,
	`SELECT id FROM ev WHERE os_id = NULL`,
	`SELECT COUNT(*) FROM ev WHERE tag LIKE 't%' AND sev < 8`,
	// Bare equi join (the shape the naive path also hash-joins).
	`SELECT osd.name, COUNT(*) FROM ev JOIN osd ON ev.os_id = osd.id GROUP BY osd.name ORDER BY osd.name`,
	// Compound ON: equi key + residual comparison (naive: nested loop).
	`SELECT e.id, o.name FROM ev e JOIN osd o ON e.os_id = o.id AND e.sev > o.tier ORDER BY e.id, o.name`,
	// ON conjunct local to the joined table (build-side filter).
	`SELECT e.id FROM ev e JOIN osd o ON e.os_id = o.id AND o.family = 'BSD' ORDER BY e.id`,
	// Single-table WHERE conjuncts under a join: pushdown both sides.
	`SELECT e.id, o.name FROM ev e JOIN osd o ON e.os_id = o.id
	 WHERE o.family = 'Linux' AND e.sev >= 5 ORDER BY e.id`,
	// Multi-table WHERE conjunct: attaches to the probe of its join.
	`SELECT COUNT(*) FROM ev e JOIN osd o ON e.os_id = o.id WHERE e.sev > o.tier AND o.tier < 2`,
	// No usable equality at all: filtered nested loop.
	`SELECT COUNT(*) FROM osd o JOIN link l ON o.id < l.a WHERE l.w = 1`,
	// Three tables, self-join through link, compound ONs, grouping.
	`SELECT oa.name, ob.name, COUNT(*) AS n
	 FROM link JOIN osd oa ON link.a = oa.id JOIN osd ob ON link.b = ob.id AND oa.id < ob.id
	 GROUP BY oa.name, ob.name ORDER BY n DESC, oa.name, ob.name`,
	// The vulndb Table III shape: self-join + satellite filters.
	`SELECT oa.name, ob.name, COUNT(DISTINCT x.id) AS n
	 FROM ev x JOIN ev y ON x.os_id = y.os_id AND x.id < y.id
	 JOIN osd oa ON x.os_id = oa.id JOIN osd ob ON y.os_id = ob.id
	 WHERE x.sev > 2 AND y.sev > 2
	 GROUP BY oa.name, ob.name ORDER BY oa.name, ob.name`,
	// Multi-column equi key.
	`SELECT COUNT(*) FROM link x JOIN link y ON x.a = y.a AND x.b = y.b`,
	// DISTINCT / HAVING / LIMIT tails on a planned join.
	`SELECT DISTINCT o.family FROM ev e JOIN osd o ON e.os_id = o.id ORDER BY o.family`,
	`SELECT o.family, COUNT(*) AS n FROM ev e JOIN osd o ON e.os_id = o.id
	 GROUP BY o.family HAVING COUNT(*) > 50 ORDER BY n DESC LIMIT 2`,
	// An equality whose one side spans both tables is no join key.
	`SELECT COUNT(*) FROM ev e JOIN osd o ON (e.os_id = o.id) = (o.tier = 1)`,
	// A repeated alias resolves to its first table, on every join path:
	// the conjunct compares ev.id with ev.sev for each (ev, osd) pair.
	`SELECT COUNT(*) FROM ev a JOIN osd a ON a.id = sev`,
	// An aggregate inside an IN list makes the query grouped.
	`SELECT 3 IN (COUNT(*), MAX(sev)) FROM ev WHERE sev > 7`,
}

func resultsEqual(a, b *Result) bool {
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if av.Kind() != bv.Kind() || av.mapKey() != bv.mapKey() {
				return false
			}
		}
	}
	return true
}

// TestPlannerMatchesNaive is the executor identity suite: every planner
// feature produces byte-identical rows (values and order) to the
// oracle executor, at worker counts 1 and 4.
func TestPlannerMatchesNaive(t *testing.T) {
	db := plannerFixture(t)
	for _, q := range plannerQueries {
		want, err := db.queryNaive(q)
		if err != nil {
			t.Fatalf("naive Query(%q): %v", q, err)
		}
		for _, workers := range []int{1, 4} {
			db.SetParallelism(workers)
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("planned Query(%q) workers=%d: %v", q, workers, err)
			}
			if !resultsEqual(want, got) {
				t.Errorf("planner diverges on %q (workers=%d):\nnaive   %v\nplanned %v",
					q, workers, want.Rows, got.Rows)
			}
		}
	}
}

// wideSelfJoin chains n copies of table t on id: every row joins only
// itself, so the answer is t's own rows whatever n is. The WHERE clause
// holds a base-table conjunct and one over the first and last tables,
// which attaches to the last join.
func wideSelfJoin(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT t0.id, t%d.v FROM t t0", n-1)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, " JOIN t t%d ON t%d.id = t%d.id", i, i-1, i)
	}
	fmt.Fprintf(&b, " WHERE t0.v > ? AND t%d.v = t0.v ORDER BY t0.id", n-1)
	return b.String()
}

// TestWideJoinAnswersBeyondPlannerWidth covers joins wider than a
// 64-bit table mask could hold. The planner tracks each expression's
// lowest and highest table position instead, so Query and Prepare plan
// 64-, 65- and 130-table self-joins, which POST /api/query accepts, and
// answer each one exactly as the oracle does.
func TestWideJoinAnswersBeyondPlannerWidth(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := int64(0); i < 5; i++ {
		mustInsert(t, db, "t", []string{"id", "v"}, []Value{Int(i), Int(10 * i)})
	}
	want := &Result{
		Columns: []string{"id", "v"},
		Rows:    [][]Value{{Int(2), Int(20)}, {Int(3), Int(30)}, {Int(4), Int(40)}},
	}
	for _, tables := range []int{64, 65, 130} {
		q := wideSelfJoin(tables)
		oracle, err := db.queryNaive(q, Int(15))
		if err != nil {
			t.Fatalf("%d tables: oracle: %v", tables, err)
		}
		if !resultsEqual(want, oracle) {
			t.Fatalf("%d tables: oracle = %v %v, want %v %v", tables, oracle.Columns, oracle.Rows, want.Columns, want.Rows)
		}
		got, err := db.Query(q, Int(15))
		if err != nil {
			t.Fatalf("%d tables: Query: %v", tables, err)
		}
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatalf("%d tables: Prepare: %v", tables, err)
		}
		if plan := st.c.Load().plan; plan == nil || len(plan.joins) != tables-1 {
			t.Errorf("%d tables: prepared plan = %v, want %d planned joins", tables, plan, tables-1)
		}
		prepared, err := st.Query(Int(15))
		if err != nil {
			t.Fatalf("%d tables: Stmt.Query: %v", tables, err)
		}
		for name, res := range map[string]*Result{"Query": got, "Stmt.Query": prepared} {
			if !resultsEqual(oracle, res) {
				t.Errorf("%d tables: %s = %v %v, oracle %v %v", tables, name, res.Columns, res.Rows, oracle.Columns, oracle.Rows)
			}
		}
	}
}

// TestCompositeKeyNoCrossBoundaryCollision: multi-column keys (join
// keys, GROUP BY, DISTINCT) encode each part length-prefixed, so TEXT
// values containing a separator byte cannot smear across component
// boundaries: no spurious join match, and no two rows merged.
func TestCompositeKeyNoCrossBoundaryCollision(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE x (a TEXT, b TEXT)`)
	mustExec(t, db, `CREATE TABLE y (a TEXT, b TEXT)`)
	// ("p\x00tq", "r") vs ("p", "q\x00tr"): a naive \x00-joined key
	// serializes both identically although neither column matches. x
	// holds both, y the second, and both hold one more genuine match.
	mustInsert(t, db, "x", []string{"a", "b"},
		[]Value{Text("p\x00tq"), Text("r")}, []Value{Text("p"), Text("q\x00tr")}, []Value{Text("k\x001"), Text("v")})
	mustInsert(t, db, "y", []string{"a", "b"},
		[]Value{Text("p"), Text("q\x00tr")}, []Value{Text("k\x001"), Text("v")})
	for _, tc := range []struct {
		q    string
		rows int
	}{
		{`SELECT x.a FROM x JOIN y ON x.a = y.a AND x.b = y.b`, 2},
		{`SELECT DISTINCT a, b FROM x`, 3},
		{`SELECT a, b FROM x GROUP BY a, b HAVING COUNT(*) = 1`, 3},
	} {
		for name, query := range map[string]func(string, ...Value) (*Result, error){
			"planner": db.Query, "oracle": db.queryNaive,
		} {
			res, err := query(tc.q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.q, err)
			}
			if len(res.Rows) != tc.rows {
				t.Errorf("%s %s: %d rows %q, want %d", name, tc.q, len(res.Rows), res.Rows, tc.rows)
			}
		}
	}
}

// TestPlannerErrorsMatchNaive: malformed queries fail under both
// executors (validation runs before any scan).
func TestPlannerErrorsMatchNaive(t *testing.T) {
	db := plannerFixture(t)
	bad := []string{
		`SELECT nosuch FROM ev JOIN osd ON ev.os_id = osd.id`,
		`SELECT id FROM ev JOIN nosuch ON ev.os_id = nosuch.id`,
		`SELECT ev.id FROM ev JOIN osd ON ev.os_id = link.a`, // later table in ON
		`SELECT id FROM ev JOIN osd ON ev.os_id = osd.id`,    // ambiguous id
		// Aggregates in a filter are refused before any row flows, so
		// no executor can answer them by evaluating the conjunct over
		// fewer rows than another.
		`SELECT id FROM ev WHERE COUNT(*) > 1 AND sev = 100`,
		`SELECT id FROM ev WHERE sev = 100 AND 1 IN (COUNT(*))`,
		`SELECT e.id FROM ev e JOIN osd o ON COUNT(*) > 0 AND e.os_id = o.id WHERE o.tier = 9`,
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("planner accepted %q", q)
		}
		if _, err := db.queryNaive(q); err == nil {
			t.Errorf("oracle accepted %q", q)
		}
	}
}

func TestPlaceholderBinding(t *testing.T) {
	db := plannerFixture(t)
	n, err := db.QueryInt(`SELECT COUNT(*) FROM ev WHERE os_id = ? AND sev > ?`, Int(3), Int(4))
	if err != nil {
		t.Fatalf("placeholder query: %v", err)
	}
	want, _ := db.QueryInt(`SELECT COUNT(*) FROM ev WHERE os_id = 3 AND sev > 4`)
	if n != want {
		t.Fatalf("placeholder count = %d, want %d", n, want)
	}

	// Quote-bearing text flows through the typed path without escaping.
	mustExec(t, db, `CREATE TABLE s (v TEXT)`)
	hostile := `O'Brien'); DROP TABLE s; --`
	mustInsert(t, db, "s", []string{"v"}, []Value{Text(hostile)})
	res, err := db.Query(`SELECT v FROM s WHERE v = ?`, Text(hostile))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsText() != hostile {
		t.Fatalf("quoted roundtrip = %v, %v", res, err)
	}
	if _, ok := db.tables["s"]; !ok {
		t.Fatal("table s gone: injection through parameter")
	}

	// Placeholders work in IN lists.
	cnt, err := db.QueryInt(`SELECT COUNT(*) FROM ev WHERE sev IN (?, ?)`, Int(1), Int(2))
	if err != nil {
		t.Fatalf("IN placeholders: %v", err)
	}
	if want, _ := db.QueryInt(`SELECT COUNT(*) FROM ev WHERE sev IN (1, 2)`); cnt != want {
		t.Fatalf("IN placeholder count = %d, want %d", cnt, want)
	}
}

func TestPlaceholderArgCountMismatch(t *testing.T) {
	db := plannerFixture(t)
	if _, err := db.Query(`SELECT id FROM ev WHERE os_id = ?`); err == nil {
		t.Error("missing argument accepted")
	}
	if _, err := db.Query(`SELECT id FROM ev WHERE os_id = ?`, Int(1), Int(2)); err == nil {
		t.Error("extra argument accepted")
	}
	if _, err := db.Query(`SELECT id FROM ev WHERE os_id = 1`, Int(1)); err == nil {
		t.Error("argument without placeholder accepted")
	}
}

// TestPreparedStatementRebinding: one parsed SELECT executes with
// different arguments without mutation (binding is copy-on-write).
func TestPreparedStatementRebinding(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (k INTEGER, v TEXT)`)
	for i := int64(0); i < 5; i++ {
		mustInsert(t, db, "t", []string{"k", "v"}, []Value{Int(i), Text(fmt.Sprintf("v%d", i))})
	}
	sel, err := ParseSelect(`SELECT v FROM t WHERE k = ? OR v = ?`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.planSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		args := []Value{Int(i), Text("v4")}
		bound, err := bindSelect(sel, args)
		if err != nil {
			t.Fatalf("bind #%d: %v", i, err)
		}
		res, err := db.execPlanned(bound, bindPlanExprs(plan, args))
		if err != nil {
			t.Fatalf("run #%d: %v", i, err)
		}
		want := []string{fmt.Sprintf("v%d", i), "v4"}
		if i == 4 {
			want = want[:1]
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("run #%d = %v, want %v", i, res.Rows, want)
		}
		for j, w := range want {
			if res.Rows[j][0].AsText() != w {
				t.Fatalf("run #%d = %v, want %v", i, res.Rows, want)
			}
		}
	}
	// The parsed statement and its plan still hold their placeholders.
	if n := countSelectPlaceholders(sel); n != 2 {
		t.Fatalf("parsed statement mutated: %d placeholders left", n)
	}
	if n := countExprPlaceholders(plan.basePreds[0]); n != 2 {
		t.Fatalf("plan mutated: %d placeholders left", n)
	}
}

func TestLikeRuneAware(t *testing.T) {
	tests := []struct {
		s, pat string
		want   bool
	}{
		{"café", "caf_", true},   // _ matches one rune, not one byte
		{"café", "caf__", false}, // ... so two _ overshoot
		{"日本語", "___", true},
		{"日本語", "日%", true},
		{"日本語", "%語", true},
		{"naïve", "na_ve", true},
		{"aéc", "a%c", true},
		{"", "_", false},
		{"x", "_", true},
	}
	for _, tt := range tests {
		if got := compileLike(tt.pat).match(tt.s); got != tt.want {
			t.Errorf("%q LIKE %q = %v, want %v", tt.s, tt.pat, got, tt.want)
		}
	}
}

// TestLikeMatchAllocFree: matching a compiled pattern allocates nothing
// (the per-row DP rows of the old implementation are gone).
func TestLikeMatchAllocFree(t *testing.T) {
	prog := compileLike("CVE-____-46%")
	if n := testing.AllocsPerRun(200, func() {
		if !prog.match("CVE-2008-4609") {
			t.Fatal("pattern must match")
		}
	}); n != 0 {
		t.Fatalf("match allocates %.1f objects per run, want 0", n)
	}
}

// TestLikeCompiledOncePerStatement: the program caches on the parsed
// LikeExpr, so scanning N rows compiles the pattern once.
func TestLikeCompiledOncePerStatement(t *testing.T) {
	sel, err := ParseSelect(`SELECT v FROM s WHERE v LIKE 'a%'`)
	if err != nil {
		t.Fatal(err)
	}
	like := sel.Where.(*LikeExpr)
	p1 := like.program()
	p2 := like.program()
	if p1 != p2 {
		t.Fatal("program recompiled on second use")
	}
}

// TestWorkersOptionAndParallelism covers the SetParallelism surface
// mirroring core.WithParallelism.
func TestWorkersOptionAndParallelism(t *testing.T) {
	db := Open()
	db.SetParallelism(4)
	if db.Parallelism() != 4 {
		t.Fatalf("Parallelism = %d after SetParallelism(4)", db.Parallelism())
	}
	db.SetParallelism(0)
	if db.Parallelism() < 1 {
		t.Fatal("SetParallelism(0) must select at least one worker")
	}
	if Open().Parallelism() != 1 {
		t.Fatal("default parallelism must be 1")
	}
}
