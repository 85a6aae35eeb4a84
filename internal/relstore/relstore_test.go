package relstore

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// mustExec fails the test on error.
func mustExec(tb testing.TB, db *DB, sql string) {
	tb.Helper()
	if err := db.Exec(sql); err != nil {
		tb.Fatalf("Exec(%q): %v", sql, err)
	}
}

// mustInsert inserts rows through the typed batch API, failing the test
// on error.
func mustInsert(tb testing.TB, db *DB, table string, cols []string, rows ...[]Value) {
	tb.Helper()
	if err := InsertRows(db, table, cols, rows); err != nil {
		tb.Fatalf("InsertRows(%s): %v", table, err)
	}
}

func mustQuery(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

// seedDB builds the canonical fixture: a tiny os/vuln/os_vuln schema in
// the spirit of the paper's Figure 1.
func seedDB(tb testing.TB) *DB {
	tb.Helper()
	db := Open()
	mustExec(tb, db, `CREATE TABLE os (id INTEGER PRIMARY KEY, name TEXT, family TEXT)`)
	mustExec(tb, db, `CREATE TABLE vuln (id INTEGER PRIMARY KEY, cve TEXT, year INTEGER, score FLOAT, remote BOOLEAN)`)
	mustExec(tb, db, `CREATE TABLE os_vuln (os_id INTEGER, vuln_id INTEGER)`)
	mustInsert(tb, db, "os", []string{"id", "name", "family"},
		[]Value{Int(1), Text("OpenBSD"), Text("BSD")},
		[]Value{Int(2), Text("NetBSD"), Text("BSD")},
		[]Value{Int(3), Text("Debian"), Text("Linux")},
		[]Value{Int(4), Text("Windows2000"), Text("Windows")})
	mustInsert(tb, db, "vuln", []string{"id", "cve", "year", "score", "remote"},
		[]Value{Int(10), Text("CVE-2008-4609"), Int(2008), Float(7.1), Bool(true)},
		[]Value{Int(11), Text("CVE-2008-1447"), Int(2008), Float(5.0), Bool(true)},
		[]Value{Int(12), Text("CVE-2005-0001"), Int(2005), Float(2.1), Bool(false)},
		[]Value{Int(13), Text("CVE-1999-0003"), Int(1999), Float(10.0), Bool(true)})
	var links [][]Value
	for _, l := range [][2]int64{{1, 10}, {2, 10}, {4, 10}, {1, 11}, {4, 11}, {3, 12}, {1, 13}} {
		links = append(links, []Value{Int(l[0]), Int(l[1])})
	}
	mustInsert(tb, db, "os_vuln", []string{"os_id", "vuln_id"}, links...)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `SELECT name, family FROM os ORDER BY id`)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	if res.Columns[0] != "name" || res.Columns[1] != "family" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][0].AsText() != "OpenBSD" || res.Rows[3][0].AsText() != "Windows2000" {
		t.Fatalf("rows out of order: %v", res.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `SELECT * FROM os WHERE family = 'BSD' ORDER BY id`)
	if len(res.Rows) != 2 || len(res.Columns) != 3 {
		t.Fatalf("got %dx%d", len(res.Rows), len(res.Columns))
	}
}

func TestWhereOperators(t *testing.T) {
	db := seedDB(t)
	tests := []struct {
		where string
		want  int
	}{
		{`year = 2008`, 2},
		{`year <> 2008`, 2},
		{`year < 2005`, 1},
		{`year <= 2005`, 2},
		{`year > 2005`, 2},
		{`year >= 2005`, 3},
		{`remote = TRUE`, 3},
		{`NOT remote = TRUE`, 1},
		{`year = 2008 AND score > 6.0`, 1},
		{`year = 1999 OR year = 2005`, 2},
		{`score >= 5.0 AND (year = 1999 OR year = 2008)`, 3},
		{`cve LIKE 'CVE-2008-%'`, 2},
		{`cve NOT LIKE 'CVE-2008-%'`, 2},
		{`cve LIKE 'CVE-____-0001'`, 1},
		{`year IN (1999, 2005)`, 2},
		{`year NOT IN (1999, 2005)`, 2},
	}
	for _, tt := range tests {
		res := mustQuery(t, db, `SELECT id FROM vuln WHERE `+tt.where)
		if len(res.Rows) != tt.want {
			t.Errorf("WHERE %s: %d rows, want %d", tt.where, len(res.Rows), tt.want)
		}
	}
}

func TestJoin(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `
		SELECT os.name, vuln.cve FROM os
		JOIN os_vuln ON os.id = os_vuln.os_id
		JOIN vuln ON os_vuln.vuln_id = vuln.id
		WHERE vuln.year = 2008
		ORDER BY vuln.cve, os.name`)
	want := [][2]string{
		{"OpenBSD", "CVE-2008-1447"},
		{"Windows2000", "CVE-2008-1447"},
		{"NetBSD", "CVE-2008-4609"},
		{"OpenBSD", "CVE-2008-4609"},
		{"Windows2000", "CVE-2008-4609"},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("join returned %d rows, want %d: %v", len(res.Rows), len(want), res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0].AsText() != w[0] || res.Rows[i][1].AsText() != w[1] {
			t.Errorf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
}

func TestJoinWithAliases(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `
		SELECT a.name AS os_name, COUNT(*) AS n FROM os a
		JOIN os_vuln ov ON a.id = ov.os_id
		GROUP BY a.name
		ORDER BY n DESC, os_name`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].AsText() != "OpenBSD" || res.Rows[0][1].AsInt() != 3 {
		t.Fatalf("top row = %v, want OpenBSD 3", res.Rows[0])
	}
	if res.Columns[0] != "os_name" || res.Columns[1] != "n" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestAggregatesUngrouped(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `SELECT COUNT(*), SUM(year), AVG(score), MIN(year), MAX(year) FROM vuln`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].AsInt() != 4 {
		t.Errorf("COUNT(*) = %v", row[0])
	}
	if row[1].AsInt() != 2008+2008+2005+1999 {
		t.Errorf("SUM(year) = %v", row[1])
	}
	wantAvg := (7.1 + 5.0 + 2.1 + 10.0) / 4
	if got := row[2].AsFloat(); got < wantAvg-1e-9 || got > wantAvg+1e-9 {
		t.Errorf("AVG(score) = %v, want %v", got, wantAvg)
	}
	if row[3].AsInt() != 1999 || row[4].AsInt() != 2008 {
		t.Errorf("MIN/MAX = %v/%v", row[3], row[4])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `
		SELECT year, COUNT(*) AS n FROM vuln
		GROUP BY year HAVING COUNT(*) > 1
		ORDER BY year`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 2008 || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("rows = %v, want [[2008 2]]", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `SELECT COUNT(DISTINCT os_id) FROM os_vuln`)
	if res.Rows[0][0].AsInt() != 4 {
		t.Fatalf("COUNT(DISTINCT os_id) = %v, want 4", res.Rows[0][0])
	}
	res = mustQuery(t, db, `SELECT COUNT(os_id) FROM os_vuln`)
	if res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("COUNT(os_id) = %v, want 7", res.Rows[0][0])
	}
}

func TestDistinctRows(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `SELECT DISTINCT os_id FROM os_vuln ORDER BY os_id`)
	if len(res.Rows) != 4 {
		t.Fatalf("DISTINCT returned %d rows, want 4", len(res.Rows))
	}
}

func TestLimit(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `SELECT id FROM vuln ORDER BY id LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("LIMIT rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `SELECT id FROM vuln LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned rows: %v", res.Rows)
	}
}

func TestOrderByMultipleKeysAndDesc(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `SELECT cve, year FROM vuln ORDER BY year DESC, cve ASC`)
	want := []string{"CVE-2008-1447", "CVE-2008-4609", "CVE-2005-0001", "CVE-1999-0003"}
	for i, w := range want {
		if res.Rows[i][0].AsText() != w {
			t.Fatalf("order wrong: %v", res.Rows)
		}
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	db := seedDB(t)
	cols := []string{"id", "name", "family"}
	if err := InsertRow(db, "os", cols, []Value{Int(1), Text("Clone"), Text("BSD")}); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	if err := InsertRow(db, "os", cols, []Value{Null(), Text("NullKey"), Text("BSD")}); err == nil {
		t.Fatal("NULL primary key accepted")
	}
}

func TestTypeChecking(t *testing.T) {
	db := seedDB(t)
	if err := InsertRow(db, "os", []string{"id", "name", "family"},
		[]Value{Text("x"), Text("Bad"), Text("BSD")}); err == nil {
		t.Fatal("text accepted in integer column")
	}
	// Integers widen into float columns.
	mustInsert(t, db, "vuln", []string{"id", "cve", "year", "score", "remote"},
		[]Value{Int(14), Text("CVE-2010-0001"), Int(2010), Int(7), Bool(true)})
	res := mustQuery(t, db, `SELECT score FROM vuln WHERE id = 14`)
	if res.Rows[0][0].Kind() != KindFloat || res.Rows[0][0].AsFloat() != 7.0 {
		t.Fatalf("widened value = %v", res.Rows[0][0])
	}
}

func TestIndexAcceleratedSelectMatchesScan(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (k INTEGER, v TEXT)`)
	for i := 0; i < 500; i++ {
		mustInsert(t, db, "t", []string{"k", "v"}, []Value{Int(int64(i % 50)), Text(fmt.Sprintf("row%d", i))})
	}
	scan := mustQuery(t, db, `SELECT v FROM t WHERE k = 17 ORDER BY v`)
	mustExec(t, db, `CREATE INDEX ON t (k)`)
	indexed := mustQuery(t, db, `SELECT v FROM t WHERE k = 17 ORDER BY v`)
	if len(scan.Rows) != len(indexed.Rows) || len(scan.Rows) != 10 {
		t.Fatalf("scan %d rows, indexed %d rows, want 10", len(scan.Rows), len(indexed.Rows))
	}
	for i := range scan.Rows {
		if scan.Rows[i][0].AsText() != indexed.Rows[i][0].AsText() {
			t.Fatalf("row %d differs: %v vs %v", i, scan.Rows[i], indexed.Rows[i])
		}
	}
}

// TestIntFloatEqualityIsExact pins INTEGER-against-FLOAT equality at the
// edge of float64's exact integers, 2^53 - 1, 2^53 and 2^53 + 1: a scan
// and an index probe answer the same rows, an equi-join matches exactly
// the pairs its range form matches, and Equal, Compare and the hash key
// agree on every pair of numbers. Over a wider grid (NaNs, ±0, ±Inf,
// booleans, timestamps, text, NULL) the map key keeps its recorded
// equivalence classes.
func TestIntFloatEqualityIsExact(t *testing.T) {
	const p53 = 1 << 53
	db := Open()
	mustExec(t, db, `CREATE TABLE a (k INTEGER)`)
	mustExec(t, db, `CREATE TABLE b (f FLOAT)`)
	for _, k := range []int64{p53 - 1, p53, p53 + 1} {
		mustInsert(t, db, "a", []string{"k"}, []Value{Int(k)})
	}
	mustInsert(t, db, "b", []string{"f"}, []Value{Float(p53 - 1)}, []Value{Float(p53)})

	count := func(sql string) int64 {
		t.Helper()
		res := mustQuery(t, db, sql)
		naive, err := db.queryNaive(sql)
		if err != nil || !resultsEqual(res, naive) {
			t.Fatalf("%s: planner %v, oracle %v (%v)", sql, res.Rows, naive, err)
		}
		return res.Rows[0][0].AsInt()
	}
	// 9007199254740993.0 rounds to 2^53 as a float literal.
	probes := []string{"9007199254740991.0", "9007199254740992.0", "9007199254740993.0"}
	var scan []int64
	for _, f := range probes {
		scan = append(scan, count(`SELECT COUNT(*) FROM a WHERE k = `+f))
	}
	equi := count(`SELECT COUNT(*) FROM a JOIN b ON a.k = b.f`)
	rangeJoin := count(`SELECT COUNT(*) FROM a JOIN b ON a.k >= b.f AND a.k <= b.f`)
	mustExec(t, db, `CREATE INDEX ON a (k)`)
	for i, f := range probes {
		if got := count(`SELECT COUNT(*) FROM a WHERE k = ` + f); got != 1 || scan[i] != 1 {
			t.Errorf("k = %s: scan %d rows, index %d, want 1 and 1", f, scan[i], got)
		}
	}
	if indexed := count(`SELECT COUNT(*) FROM a JOIN b ON a.k = b.f`); equi != 2 || rangeJoin != 2 || indexed != 2 {
		t.Errorf("equi-join %d, range join %d, indexed equi-join %d, want 2 each", equi, rangeJoin, indexed)
	}

	// Each value's class is the hash-key string the engine keyed it by
	// before map keys became Values; two values must share a map key
	// exactly when their classes match.
	t0 := time.Date(2008, 1, 2, 3, 4, 5, 0, time.UTC)
	grid := []struct {
		v     Value
		class string
	}{
		{Int(p53 - 1), "i9007199254740991"},
		{Int(p53), "i9007199254740992"},
		{Int(p53 + 1), "i9007199254740993"},
		{Float(p53 - 1), "i9007199254740991"},
		{Float(p53), "i9007199254740992"},
		{Float(p53 + 2), "i9007199254740994"},
		{Float(0.5), "f0.5"},
		{Int(0), "i0"},
		{Int(1), "i1"},
		{Float(-1 << 63), "i-9223372036854775808"},
		{Int(-1 << 63), "i-9223372036854775808"},
		{Float(1 << 63), "f9.223372036854776e+18"},
		{Int(1<<63 - 1), "i9223372036854775807"},
		{Float(math.NaN()), "fNaN"},
		{Float(math.Float64frombits(0x7ff8000000000001)), "fNaN"},
		{Float(math.Float64frombits(0xfff8000000000000)), "fNaN"},
		{Float(0), "i0"},
		{Float(math.Copysign(0, -1)), "i0"},
		{Float(math.Inf(1)), "f+Inf"},
		{Float(math.Inf(-1)), "f-Inf"},
		{Bool(true), "b1"},
		{Bool(false), "b0"},
		{Time(t0), "d1199243045000000000"},
		{Time(t0.In(time.FixedZone("x", 3600))), "d1199243045000000000"},
		{Time(t0.Add(1)), "d1199243045000000001"},
		{Time(time.Unix(0, 0)), "d0"},
		{Text(""), "t"},
		{Text("1"), "t1"},
		{Text("NaN"), "tNaN"},
		{Null(), "n"},
	}
	for _, x := range grid {
		for _, y := range grid {
			if same := x.v.mapKey() == y.v.mapKey(); same != (x.class == y.class) {
				t.Errorf("%s %v and %s %v share a map key: %v, want %v",
					x.v.Kind(), x.v, y.v.Kind(), y.v, same, x.class == y.class)
			}
		}
	}
	// Among the numbers no NaN reaches, Equal, Compare and the map key
	// agree.
	for _, x := range grid[:13] {
		for _, y := range grid[:13] {
			eq := x.v.Equal(y.v)
			if keyEq := x.v.mapKey() == y.v.mapKey(); eq != keyEq {
				t.Errorf("%s %v = %s %v is %v, but keys equal is %v", x.v.Kind(), x.v, y.v.Kind(), y.v, eq, keyEq)
			}
			if cmpEq := x.v.Compare(y.v) == 0; eq != cmpEq {
				t.Errorf("%s %v = %s %v is %v, but Compare is %d", x.v.Kind(), x.v, y.v.Kind(), y.v, eq, x.v.Compare(y.v))
			}
			if x.v.Compare(y.v) != -y.v.Compare(x.v) {
				t.Errorf("Compare(%v, %v) = %d is not antisymmetric", x.v, y.v, x.v.Compare(y.v))
			}
		}
	}
}

func TestPrimaryKeyLookupPath(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, `SELECT name FROM os WHERE id = 3`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "Debian" {
		t.Fatalf("pk lookup = %v", res.Rows)
	}
	res = mustQuery(t, db, `SELECT name FROM os WHERE id = 999`)
	if len(res.Rows) != 0 {
		t.Fatalf("pk miss returned rows: %v", res.Rows)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := seedDB(t)
	mustExec(t, db, `CREATE INDEX ON os_vuln (vuln_id)`)
	path := filepath.Join(t.TempDir(), "study.gob.gz")
	if err := db.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, tbl := range []string{"os", "vuln", "os_vuln"} {
		want, _ := db.QueryInt(`SELECT COUNT(*) FROM ` + tbl)
		got, err := back.QueryInt(`SELECT COUNT(*) FROM ` + tbl)
		if err != nil || got != want {
			t.Fatalf("table %s: %d rows after reload, want %d (%v)", tbl, got, want, err)
		}
	}
	// The reloaded database must answer an indexed join identically.
	q := `SELECT os.name FROM os JOIN os_vuln ON os.id = os_vuln.os_id WHERE os_vuln.vuln_id = 10 ORDER BY os.name`
	a := mustQuery(t, db, q)
	b := mustQuery(t, back, q)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("reloaded join differs: %v vs %v", a.Rows, b.Rows)
	}
	for i := range a.Rows {
		if a.Rows[i][0].AsText() != b.Rows[i][0].AsText() {
			t.Fatalf("reloaded join row %d: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestTimestampColumns(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE ev (id INTEGER, at TIMESTAMP)`)
	// Timestamps are inserted through the typed API in production code;
	// here we verify ordering and persistence round-trip at the SQL layer
	// using the Insert helper below.
	when := time.Date(2008, 7, 8, 12, 0, 0, 0, time.UTC)
	if err := InsertRow(db, "ev", []string{"id", "at"}, []Value{Int(1), Time(when)}); err != nil {
		t.Fatalf("InsertRow: %v", err)
	}
	if err := InsertRow(db, "ev", []string{"id", "at"}, []Value{Int(2), Time(when.AddDate(1, 0, 0))}); err != nil {
		t.Fatalf("InsertRow: %v", err)
	}
	res := mustQuery(t, db, `SELECT id FROM ev ORDER BY at DESC`)
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("timestamp ordering wrong: %v", res.Rows)
	}
	path := filepath.Join(t.TempDir(), "ev.gob.gz")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res = mustQuery(t, back, `SELECT id FROM ev ORDER BY at`)
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("timestamps lost on reload: %v", res.Rows)
	}
}

func TestErrors(t *testing.T) {
	db := seedDB(t)
	bad := []string{
		`SELECT nosuch FROM os`,
		`SELECT name FROM nosuch`,
		`SELECT name FROM os WHERE`,
		`INSERT INTO os (id) VALUES (5)`,
		`CREATE TABLE os (id INTEGER)`, // duplicate table
		`CREATE TABLE bad ()`,
		`CREATE INDEX ON os (nosuch)`,
		`DELETE FROM os`,
		`UPDATE os SET name = 'x'`,
		`DROP TABLE os`,
		`SELECT COUNT(*) FROM os GROUP BY`,
		`SELECT * FROM os ORDER`,
		`TRUNCATE os`,
		`SELECT name FROM os LIMIT -1`,
		`SELECT MAX(*) FROM vuln`,
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			if err2 := db.Exec(sql); err2 == nil {
				t.Errorf("statement %q accepted", sql)
			}
		}
	}
	if n, _ := db.QueryInt(`SELECT COUNT(*) FROM os`); n != 4 {
		t.Errorf("os holds %d rows after the refused statements, want 4", n)
	}
}

// TestExecRejectsSelectAndQueryRejectsDML: Exec runs DDL only, and
// Query, Prepare and ParseSelect refuse every statement that begins with
// CREATE, INSERT, UPDATE, DELETE or DROP through ErrNotSelect — well
// formed or not — while any other defect stays a parse error.
func TestExecRejectsSelectAndQueryRejectsDML(t *testing.T) {
	db := seedDB(t)
	if err := db.Exec(`SELECT * FROM os`); err == nil {
		t.Error("Exec accepted SELECT")
	}
	for _, sql := range []string{
		`DELETE FROM os`, `delete`, `INSERT garbage`, `UPDATE os SET name = 'x'`,
		`DROP os`, `drop table os`, `CREATE TABLE bad ()`, `CREATE INDEX ON os (name)`,
	} {
		if _, err := db.Query(sql); !errors.Is(err, ErrNotSelect) {
			t.Errorf("Query(%q) = %v, want ErrNotSelect", sql, err)
		}
		if _, err := db.Prepare(sql); !errors.Is(err, ErrNotSelect) {
			t.Errorf("Prepare(%q) = %v, want ErrNotSelect", sql, err)
		}
		if _, err := ParseSelect(sql); !errors.Is(err, ErrNotSelect) {
			t.Errorf("ParseSelect(%q) = %v, want ErrNotSelect", sql, err)
		}
	}
	for _, sql := range []string{`SELEKT oops`, `TRUNCATE os`, `SELECT name FROM`, ``} {
		if _, err := ParseSelect(sql); err == nil || errors.Is(err, ErrNotSelect) {
			t.Errorf("ParseSelect(%q) = %v, want a parse error", sql, err)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := seedDB(t)
	// Both os and vuln have a column named id: unqualified use must fail.
	if _, err := db.Query(`SELECT id FROM os JOIN vuln ON os.id = vuln.id`); err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestStringEscaping(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE s (v TEXT)`)
	mustInsert(t, db, "s", []string{"v"}, []Value{Text("it's a test")})
	res := mustQuery(t, db, `SELECT v FROM s WHERE v = 'it''s a test'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "it's a test" {
		t.Fatalf("escaped string = %v", res.Rows)
	}
}

func TestComments(t *testing.T) {
	db := seedDB(t)
	res := mustQuery(t, db, "SELECT name FROM os -- trailing comment\nWHERE family = 'BSD'")
	if len(res.Rows) != 2 {
		t.Fatalf("comment handling broke query: %v", res.Rows)
	}
}

func TestQueryInt(t *testing.T) {
	db := seedDB(t)
	n, err := db.QueryInt(`SELECT COUNT(*) FROM vuln`)
	if err != nil || n != 4 {
		t.Fatalf("QueryInt = %d, %v", n, err)
	}
	if _, err := db.QueryInt(`SELECT id FROM vuln`); err == nil {
		t.Error("QueryInt accepted multi-row result")
	}
	if _, err := db.QueryInt(`SELECT cve FROM vuln LIMIT 1`); err == nil {
		t.Error("QueryInt accepted text result")
	}
}

func TestLikeMatchProperty(t *testing.T) {
	// A pattern equal to the string (no wildcards) always matches;
	// a '%'-only pattern matches everything.
	f := func(raw uint32) bool {
		s := fmt.Sprintf("v%d", raw%10000)
		return compileLike(s).match(s) && compileLike("%").match(s) && compileLike("v%").match(s) && !compileLike("x%").match(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeMatchTable(t *testing.T) {
	tests := []struct {
		s, pat string
		want   bool
	}{
		{"CVE-2008-4609", "CVE-2008-%", true},
		{"CVE-2008-4609", "%4609", true},
		{"CVE-2008-4609", "CVE-____-4609", true},
		{"CVE-2008-4609", "cve-2008-%", false}, // case sensitive
		{"abc", "a%c", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"", "%", true},
		{"", "_", false},
		{"%literal", "%literal", true},
	}
	for _, tt := range tests {
		if got := compileLike(tt.pat).match(tt.s); got != tt.want {
			t.Errorf("%q LIKE %q = %v, want %v", tt.s, tt.pat, got, tt.want)
		}
	}
}

func TestValueCompareTotalOrderProperty(t *testing.T) {
	vals := []Value{
		Null(), Int(-3), Int(0), Int(7), Float(2.5), Float(7.0),
		Text(""), Text("a"), Text("b"), Bool(false), Bool(true),
		Time(time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)),
		Time(time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)),
	}
	for _, a := range vals {
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Fatalf("Compare(%v,%v) not antisymmetric", a, b)
			}
			for _, c := range vals {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Fatalf("Compare not transitive: %v %v %v", a, b, c)
				}
			}
		}
	}
}

func TestNumericCrossKindEquality(t *testing.T) {
	if !Int(7).Equal(Float(7.0)) {
		t.Error("Int(7) != Float(7.0)")
	}
	if Int(7).Equal(Float(7.5)) {
		t.Error("Int(7) == Float(7.5)")
	}
	if Int(7).mapKey() != Float(7.0).mapKey() {
		t.Error("hash keys differ for equal numerics (breaks joins on mixed columns)")
	}
	if Null().Equal(Null()) {
		t.Error("NULL = NULL must be false")
	}
}

func TestInsertRowsBulkProperty(t *testing.T) {
	// Inserting n rows then COUNT(*) always returns n; GROUP BY k SUM
	// matches a hand computation.
	f := func(seed uint8) bool {
		db := Open()
		if err := db.Exec(`CREATE TABLE t (k INTEGER, v INTEGER)`); err != nil {
			return false
		}
		n := int(seed)%40 + 1
		sums := map[int64]int64{}
		for i := 0; i < n; i++ {
			k := int64(i % 5)
			v := int64(i * i)
			sums[k] += v
			if err := InsertRow(db, "t", []string{"k", "v"}, []Value{Int(k), Int(v)}); err != nil {
				return false
			}
		}
		cnt, err := db.QueryInt(`SELECT COUNT(*) FROM t`)
		if err != nil || cnt != int64(n) {
			return false
		}
		res, err := db.Query(`SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k`)
		if err != nil {
			return false
		}
		for _, row := range res.Rows {
			if sums[row[0].AsInt()] != row[1].AsInt() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGroupedEmptySetReadsNullRow: an aggregate query without GROUP BY
// answers one row over zero input rows, and its plain column references
// (in the select list, HAVING or ORDER BY) read NULL instead of
// indexing a missing row. Both executors share the grouped tail.
func TestGroupedEmptySetReadsNullRow(t *testing.T) {
	db := seedDB(t)
	for _, tt := range []struct {
		sql  string
		want [][]Value
	}{
		{`SELECT name, COUNT(*) FROM os WHERE id = 999`, [][]Value{{Null(), Int(0)}}},
		{`SELECT COUNT(*) FROM os WHERE id = 999 ORDER BY name`, [][]Value{{Int(0)}}},
		{`SELECT os.name, MAX(vuln.year) FROM os JOIN os_vuln ON os.id = os_vuln.os_id
		  JOIN vuln ON os_vuln.vuln_id = vuln.id WHERE vuln.year > 3000`, [][]Value{{Null(), Null()}}},
		{`SELECT COUNT(*) FROM os WHERE id = 999 HAVING name = 'x'`, nil},
	} {
		for name, query := range map[string]func(string, ...Value) (*Result, error){
			"planner": db.Query, "oracle": db.queryNaive,
		} {
			res, err := query(tt.sql)
			if err != nil {
				t.Fatalf("%s %q: %v", name, tt.sql, err)
			}
			if !resultsEqual(&Result{Columns: res.Columns, Rows: tt.want}, res) {
				t.Errorf("%s %q = %v, want %v", name, tt.sql, res.Rows, tt.want)
			}
		}
	}
}

// TestIdentifiersAreASCII: identifiers are [A-Za-z_][A-Za-z0-9_]*, so
// any other byte fails to lex, and a statement's normalized shape lexes
// (and fails) exactly like the statement.
func TestIdentifiersAreASCII(t *testing.T) {
	db := seedDB(t)
	for _, sql := range []string{
		"SELECT \u00ea FROM os",
		"SELECT \u00ca FROM os",
		"SELECT \xc3\xc3 FROM os",
		"SELECT name FROM os WHERE family = 'BSD' AND n\u00e9 = 1",
	} {
		if _, err := lex(sql); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("lex(%q) = %v, want an unexpected-character error", sql, err)
		}
		if _, err := db.Query(sql); err == nil {
			t.Errorf("Query(%q) accepted a non-ASCII identifier", sql)
		}
	}
	for _, sql := range []string{
		"SELECT name AS Name_2 FROM os WHERE family = 'caf\u00e9'",
		"SELECT _x.name FROM os _x WHERE _x.family LIKE '\u65e5%'",
	} {
		shape, _, err := normalizeSQL(sql)
		if err != nil {
			t.Fatalf("normalizeSQL(%q): %v", sql, err)
		}
		if again, _, err := normalizeSQL(shape); err != nil || again != shape {
			t.Errorf("shape %q normalizes to %q, %v", shape, again, err)
		}
		if _, err := db.Query(sql); err != nil {
			t.Errorf("Query(%q): %v", sql, err)
		}
	}
}
