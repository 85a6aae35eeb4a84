package relstore

import (
	"fmt"
	"testing"
)

func benchDB(b *testing.B, rows int, indexed bool) *DB {
	b.Helper()
	db := Open()
	if err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		err := InsertRow(db, "t", []string{"id", "k", "v"},
			[]Value{Int(int64(i)), Int(int64(i % 100)), Text(fmt.Sprintf("row%d", i))})
		if err != nil {
			b.Fatal(err)
		}
	}
	if indexed {
		if err := db.Exec(`CREATE INDEX ON t (k)`); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkInsertRow(b *testing.B) {
	db := Open()
	if err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := InsertRow(db, "t", []string{"id", "k", "v"},
			[]Value{Int(int64(i)), Int(int64(i % 100)), Text("payload")})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectScan(b *testing.B) {
	db := benchDB(b, 5000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(`SELECT v FROM t WHERE k = 17`)
		if err != nil || len(res.Rows) != 50 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	db := benchDB(b, 5000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(`SELECT v FROM t WHERE k = 17`)
		if err != nil || len(res.Rows) != 50 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	db := benchDB(b, 5000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(`SELECT k, COUNT(*), MIN(id), MAX(id) FROM t GROUP BY k ORDER BY k`)
		if err != nil || len(res.Rows) != 100 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(b, 2000, false)
	if err := db.Exec(`CREATE TABLE names (k INTEGER, label TEXT)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := InsertRow(db, "names", []string{"k", "label"},
			[]Value{Int(int64(i)), Text(fmt.Sprintf("bucket%d", i))}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(`SELECT names.label, COUNT(*) FROM t JOIN names ON t.k = names.k GROUP BY names.label`)
		if err != nil || len(res.Rows) != 100 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

// compoundJoinDB builds the planner benchmark fixture: a fact table
// joined against a dimension table through a compound ON clause (equi
// key + residual range), the shape the oracle executor answers with an
// O(n*m) nested loop.
func compoundJoinDB(b *testing.B) *DB {
	b.Helper()
	db := benchDB(b, 5000, true)
	if err := db.Exec(`CREATE TABLE dim (k INTEGER, tier INTEGER, label TEXT)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := InsertRow(db, "dim", []string{"k", "tier", "label"},
			[]Value{Int(int64(i % 100)), Int(int64(i % 5)), Text(fmt.Sprintf("d%d", i))}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

const compoundJoinQuery = `
	SELECT dim.label, COUNT(*) FROM t
	JOIN dim ON t.k = dim.k AND dim.tier < 3
	WHERE t.id > 100 AND t.k < 50
	GROUP BY dim.label`

func benchmarkCompoundJoin(b *testing.B, query func(string, ...Value) (*Result, error)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := query(compoundJoinQuery)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

// BenchmarkJoinCompoundOnNaive measures the oracle executor
// (oracle_test.go): the compound ON falls to the nested loop, WHERE
// filters after the join.
func BenchmarkJoinCompoundOnNaive(b *testing.B) {
	benchmarkCompoundJoin(b, compoundJoinDB(b).queryNaive)
}

// BenchmarkJoinCompoundOnPlanned measures the planner on the same
// query: pushdown + hash join with residual probe predicates.
func BenchmarkJoinCompoundOnPlanned(b *testing.B) {
	benchmarkCompoundJoin(b, compoundJoinDB(b).Query)
}

// preparedBenchDB keeps the tables tiny under a deliberately wide
// query, so parse + plan time dominates row processing and the
// cache-hit/cold pair isolates what the plan cache saves.
func preparedBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open()
	if err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	if err := db.Exec(`CREATE TABLE dim (k INTEGER, tier INTEGER, label TEXT)`); err != nil {
		b.Fatal(err)
	}
	if err := db.Exec(`CREATE INDEX ON dim (k)`); err != nil {
		b.Fatal(err)
	}
	for j := 1; j <= 4; j++ {
		if err := db.Exec(fmt.Sprintf(`CREATE TABLE aux%d (k INTEGER, w INTEGER)`, j)); err != nil {
			b.Fatal(err)
		}
		if err := db.Exec(fmt.Sprintf(`CREATE INDEX ON aux%d (k)`, j)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := InsertRow(db, "t", []string{"id", "k", "v"},
			[]Value{Int(int64(i)), Int(int64(i % 2)), Text(fmt.Sprintf("row%d", i))}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := InsertRow(db, "dim", []string{"k", "tier", "label"},
			[]Value{Int(int64(i)), Int(int64(i % 3)), Text(fmt.Sprintf("d%d", i))}); err != nil {
			b.Fatal(err)
		}
		for j := 1; j <= 4; j++ {
			if err := InsertRow(db, fmt.Sprintf("aux%d", j), []string{"k", "w"},
				[]Value{Int(int64(i)), Int(int64(i * 3))}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// preparedBenchQuery is wide to parse, validate and plan but cheap to
// execute: pure single-key equi joins over stored indexes (the build
// side is reused as-is), every WHERE conjunct is single-table on the
// tiny probe base, and there are no literal slots to bind — LIKE
// patterns stay literal under normalization — so a cache hit replays
// the compiled plan untouched.
const preparedBenchQuery = `
	SELECT dim.label, COUNT(*), COUNT(DISTINCT t.v), MIN(t.id), MAX(t.id), SUM(aux1.w), AVG(aux2.w) FROM t
	JOIN dim ON t.k = dim.k
	JOIN aux1 ON dim.k = aux1.k
	JOIN aux2 ON aux1.k = aux2.k
	JOIN aux3 ON aux2.k = aux3.k
	JOIN aux4 ON aux3.k = aux4.k
	WHERE t.v LIKE 'row0%' AND t.id >= t.k AND t.k <= t.id
	  AND t.v NOT LIKE 'nope%' AND t.v NOT LIKE 'absent%' AND t.v NOT LIKE 'ww%'
	  AND t.v NOT LIKE 'zz%' AND t.v NOT LIKE 'yy%' AND t.v NOT LIKE 'xx%'
	  AND t.v NOT LIKE 'qq%' AND t.v NOT LIKE 'pp%' AND t.v NOT LIKE 'rr%'
	  AND t.v NOT LIKE 'ss%' AND t.v NOT LIKE 'tt%' AND t.v NOT LIKE 'uu%'
	  AND t.v NOT LIKE 'vv%' AND t.v NOT LIKE 'mm%' AND t.v NOT LIKE 'nn%'
	  AND t.v NOT LIKE 'oo%' AND t.v NOT LIKE 'kk%' AND t.v NOT LIKE 'll%'
	  AND t.id >= t.id AND t.k >= t.k AND t.v = t.v AND t.id <= t.id
	  AND t.k <= t.k AND t.v >= t.v AND t.v <= t.v AND t.id = t.id
	GROUP BY dim.label
	HAVING MAX(t.id) >= MIN(t.id) AND COUNT(*) >= MIN(t.k)
	ORDER BY dim.label`

// BenchmarkPreparedQueryCacheHit replays a prepared handle whose plan
// sits in the cache: every iteration is the hit fast path — an atomic
// generation check plus execution, with no lexing, parsing or planning.
func BenchmarkPreparedQueryCacheHit(b *testing.B) {
	db := preparedBenchDB(b)
	st, err := db.Prepare(preparedBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Query(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query()
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

// BenchmarkPreparedQueryCacheCold flushes the cache every iteration, so
// each run pays the full normalize + parse + validate + plan cost the
// cache-hit variant amortizes away.
func BenchmarkPreparedQueryCacheCold(b *testing.B) {
	db := preparedBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.InvalidatePlans()
		res, err := db.Query(preparedBenchQuery)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v, %d rows", err, len(res.Rows))
		}
	}
}

func BenchmarkParseOnly(b *testing.B) {
	const q = `SELECT a.name, COUNT(DISTINCT x.vuln_id) FROM os a JOIN os_vuln x ON a.id = x.os_id WHERE a.family = 'BSD' AND x.version LIKE '4.%' GROUP BY a.name ORDER BY a.name DESC LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSelect(q); err != nil {
			b.Fatal(err)
		}
	}
}
