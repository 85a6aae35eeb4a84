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
	for i := 0; i < 12; i++ {
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO osd (id, name, family, tier) VALUES (%d, 'os%d', '%s', %d)`,
			i, i, families[i%len(families)], i%3))
	}
	for i := 0; i < 400; i++ {
		osID := fmt.Sprint(i % 12)
		if i%17 == 0 {
			osID = "NULL" // NULL join keys must match nothing
		}
		tag := fmt.Sprintf("'t%d'", i%7)
		if i%13 == 0 {
			tag = "NULL"
		}
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO ev (id, os_id, sev, tag) VALUES (%d, %s, %d, %s)`,
			i, osID, i%10, tag))
	}
	for i := 0; i < 120; i++ {
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO link (a, b, w) VALUES (%d, %d, %d)`, i%12, (i*5)%12, i%4))
	}
	mustExec(t, db, `CREATE INDEX ON ev (os_id)`)
	mustExec(t, db, `CREATE INDEX ON link (a)`)
	return db
}

// plannerQueries are the shapes the planner must answer byte-identically
// to the naive reference executor.
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
			if av.Kind() != bv.Kind() || av.key() != bv.key() {
				return false
			}
		}
	}
	return true
}

// TestPlannerMatchesNaive is the executor identity suite: every planner
// feature produces byte-identical rows (values and order) to the
// reference executor, at worker counts 1 and 4.
func TestPlannerMatchesNaive(t *testing.T) {
	db := plannerFixture(t)
	for _, q := range plannerQueries {
		db.SetPlanMode(PlanNaive)
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("naive Query(%q): %v", q, err)
		}
		db.SetPlanMode(PlanJoin)
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
// itself, so the answer is t's own rows whatever n is.
func wideSelfJoin(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT t0.id, t%d.v FROM t t0", n-1)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, " JOIN t t%d ON t%d.id = t%d.id", i, i-1, i)
	}
	b.WriteString(" WHERE t0.v > ? ORDER BY t0.id")
	return b.String()
}

// TestWideJoinAnswersBeyondPlannerWidth covers joins over more than
// maxPlannedTables tables. The planner's table bitmask cannot hold them,
// so Query and Prepare fall back to the naive executor — the only one
// that answers such a join, which POST /api/query accepts. The same
// query at exactly maxPlannedTables tables runs through the planner.
func TestWideJoinAnswersBeyondPlannerWidth(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := 0; i < 5; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t (id, v) VALUES (%d, %d)`, i, 10*i))
	}
	for _, tables := range []int{maxPlannedTables, maxPlannedTables + 1} {
		q := wideSelfJoin(tables)
		want := &Result{
			Columns: []string{"id", "v"},
			Rows:    [][]Value{{Int(2), Int(20)}, {Int(3), Int(30)}, {Int(4), Int(40)}},
		}
		got, err := db.Query(q, Int(15))
		if err != nil {
			t.Fatalf("%d tables: Query: %v", tables, err)
		}
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatalf("%d tables: Prepare: %v", tables, err)
		}
		if planned := st.c.Load().plan != nil; planned != (tables <= maxPlannedTables) {
			t.Errorf("%d tables: planned = %v", tables, planned)
		}
		prepared, err := st.Query(Int(15))
		if err != nil {
			t.Fatalf("%d tables: Stmt.Query: %v", tables, err)
		}
		for name, res := range map[string]*Result{"Query": got, "Stmt.Query": prepared} {
			if !resultsEqual(want, res) {
				t.Errorf("%d tables: %s = %v %v, want %v %v", tables, name, res.Columns, res.Rows, want.Columns, want.Rows)
			}
		}
	}
}

// TestCompositeKeyNoCrossBoundaryCollision: multi-column join keys are
// length-prefixed, so TEXT values containing the separator byte cannot
// smear across component boundaries and produce spurious matches.
func TestCompositeKeyNoCrossBoundaryCollision(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE x (a TEXT, b TEXT)`)
	mustExec(t, db, `CREATE TABLE y (a TEXT, b TEXT)`)
	// ("p\x00tq", "r") vs ("p", "q\x00tr"): a naive \x00-joined key
	// serializes both sides identically although neither column matches.
	if err := InsertRow(db, "x", []string{"a", "b"}, []Value{Text("p\x00tq"), Text("r")}); err != nil {
		t.Fatal(err)
	}
	if err := InsertRow(db, "y", []string{"a", "b"}, []Value{Text("p"), Text("q\x00tr")}); err != nil {
		t.Fatal(err)
	}
	// And one genuine match, to prove the join still joins.
	if err := InsertRow(db, "x", []string{"a", "b"}, []Value{Text("k\x001"), Text("v")}); err != nil {
		t.Fatal(err)
	}
	if err := InsertRow(db, "y", []string{"a", "b"}, []Value{Text("k\x001"), Text("v")}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT COUNT(*) FROM x JOIN y ON x.a = y.a AND x.b = y.b`
	for _, mode := range []PlanMode{PlanJoin, PlanNaive} {
		db.SetPlanMode(mode)
		n, err := db.QueryInt(q)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if n != 1 {
			t.Errorf("mode %d matched %d rows, want 1", mode, n)
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
	}
	for _, q := range bad {
		for _, mode := range []PlanMode{PlanJoin, PlanNaive} {
			db.SetPlanMode(mode)
			if _, err := db.Query(q); err == nil {
				t.Errorf("mode %d accepted %q", mode, q)
			}
		}
	}
	db.SetPlanMode(PlanJoin)
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
	if _, err := db.Exec(`INSERT INTO s (v) VALUES (?)`, Text(hostile)); err != nil {
		t.Fatalf("insert with quoted arg: %v", err)
	}
	res, err := db.Query(`SELECT v FROM s WHERE v = ?`, Text(hostile))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsText() != hostile {
		t.Fatalf("quoted roundtrip = %v, %v", res, err)
	}
	if _, ok := db.tables["s"]; !ok {
		t.Fatal("table s gone: injection through parameter")
	}

	// Placeholders work in IN lists, UPDATE and DELETE.
	cnt, err := db.QueryInt(`SELECT COUNT(*) FROM ev WHERE sev IN (?, ?)`, Int(1), Int(2))
	if err != nil {
		t.Fatalf("IN placeholders: %v", err)
	}
	if want, _ := db.QueryInt(`SELECT COUNT(*) FROM ev WHERE sev IN (1, 2)`); cnt != want {
		t.Fatalf("IN placeholder count = %d, want %d", cnt, want)
	}
	if _, err := db.Exec(`UPDATE s SET v = ? WHERE v = ?`, Text("clean"), Text(hostile)); err != nil {
		t.Fatalf("UPDATE placeholders: %v", err)
	}
	if _, err := db.Exec(`DELETE FROM s WHERE v = ?`, Text("clean")); err != nil {
		t.Fatalf("DELETE placeholders: %v", err)
	}
	if n, _ := db.RowCount("s"); n != 0 {
		t.Fatalf("DELETE left %d rows", n)
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

// TestPreparedStatementRebinding: one parsed statement executes with
// different arguments without mutation (binding is copy-on-write).
func TestPreparedStatementRebinding(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (k INTEGER, v TEXT)`)
	stmt, err := Parse(`INSERT INTO t (k, v) VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.ExecStmt(stmt, Int(int64(i)), Text(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("ExecStmt #%d: %v", i, err)
		}
	}
	res := mustQuery(t, db, `SELECT k, v FROM t ORDER BY k`)
	if len(res.Rows) != 5 || res.Rows[3][1].AsText() != "v3" {
		t.Fatalf("rebinding broke inserts: %v", res.Rows)
	}
	// The original statement still holds its placeholders.
	if n := countStmtPlaceholders(stmt); n != 2 {
		t.Fatalf("prepared statement mutated: %d placeholders left", n)
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
		if got := likeMatch(tt.s, tt.pat); got != tt.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tt.s, tt.pat, got, tt.want)
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
	stmt, err := Parse(`SELECT v FROM s WHERE v LIKE 'a%'`)
	if err != nil {
		t.Fatal(err)
	}
	like := stmt.(*SelectStmt).Where.(*LikeExpr)
	p1 := like.program()
	p2 := like.program()
	if p1 != p2 {
		t.Fatal("program recompiled on second use")
	}
}

// TestWorkersOptionAndParallelism covers the Workers/SetParallelism
// surface mirroring core.WithParallelism.
func TestWorkersOptionAndParallelism(t *testing.T) {
	db := Open(Workers(4))
	if db.Parallelism() != 4 {
		t.Fatalf("Parallelism = %d after Workers(4)", db.Parallelism())
	}
	db.SetParallelism(0)
	if db.Parallelism() < 1 {
		t.Fatal("SetParallelism(0) must select at least one worker")
	}
	if Open().Parallelism() != 1 {
		t.Fatal("default parallelism must be 1")
	}
}
