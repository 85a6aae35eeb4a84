package relstore

import (
	"math"
	"testing"
)

// fuzzFixture is seedDB plus NULL join keys, a NaN score, indexes on
// an integer, a float and a text column, and two rows of text that
// differ only in where a NUL byte splits them, so the fuzzer reaches
// index narrowing by equality and by range, primary-key probes, NULL
// and NaN handling and multi-column keys over such text. Every table
// keeps at most 10 rows: the oracle joins with nested loops.
func fuzzFixture(tb testing.TB) *DB {
	tb.Helper()
	db := seedDB(tb)
	mustExec(tb, db, `CREATE TABLE g (a TEXT, b TEXT)`)
	mustInsert(tb, db, "g", []string{"a", "b"},
		[]Value{Text("x\x00tb"), Text("c")}, []Value{Text("x"), Text("b\x00tc")})
	mustInsert(tb, db, "os_vuln", []string{"os_id", "vuln_id"},
		[]Value{Null(), Int(11)}, []Value{Int(3), Null()})
	mustInsert(tb, db, "vuln", []string{"id", "cve", "year", "score", "remote"},
		[]Value{Int(14), Text("CVE-2008-0000"), Int(2008), Null(), Null()},
		[]Value{Int(15), Text("CVE-2010-0002"), Int(2010), Float(math.NaN()), Bool(false)})
	mustExec(tb, db, `CREATE INDEX ON os_vuln (vuln_id)`)
	mustExec(tb, db, `CREATE INDEX ON os (family)`)
	mustExec(tb, db, `CREATE INDEX ON vuln (year)`)
	mustExec(tb, db, `CREATE INDEX ON vuln (score)`)
	db.SetParallelism(2)
	return db
}

// fuzzSeeds cover every clause of the dialect over the fixture schema.
var fuzzSeeds = []string{
	`SELECT * FROM os`,
	`SELECT name, family FROM os WHERE family = 'BSD' ORDER BY name DESC`,
	`SELECT id FROM vuln WHERE year >= 2005 AND score < 8.5 OR remote = FALSE`,
	`SELECT cve FROM vuln WHERE cve LIKE 'CVE-2008-%' AND year IN (2008, 1999)`,
	`SELECT cve FROM vuln WHERE cve NOT LIKE '%0_' AND NOT remote = TRUE`,
	`SELECT os.name, vuln.cve FROM os JOIN os_vuln ON os.id = os_vuln.os_id
	 JOIN vuln ON os_vuln.vuln_id = vuln.id WHERE vuln.year = 2008 ORDER BY vuln.cve, os.name`,
	`SELECT a.name AS n, COUNT(*) AS c FROM os a JOIN os_vuln ov ON a.id = ov.os_id
	 GROUP BY a.name HAVING COUNT(*) > 1 ORDER BY c DESC, n`,
	`SELECT COUNT(*), SUM(year), AVG(score), MIN(cve), MAX(year) FROM vuln`,
	`SELECT COUNT(DISTINCT os_id), COUNT(vuln_id) FROM os_vuln WHERE vuln_id <> 13`,
	`SELECT DISTINCT family FROM os ORDER BY family LIMIT 2`,
	`SELECT x.os_id, y.os_id FROM os_vuln x JOIN os_vuln y ON x.vuln_id = y.vuln_id AND x.os_id < y.os_id`,
	`SELECT o.name FROM os o JOIN os_vuln l ON o.id < l.os_id AND l.vuln_id = 10 WHERE o.family <> 'Linux'`,
	`SELECT oa.name, ob.name, COUNT(DISTINCT x.vuln_id) FROM os_vuln x
	 JOIN os_vuln y ON x.vuln_id = y.vuln_id JOIN os oa ON x.os_id = oa.id
	 JOIN os ob ON y.os_id = ob.id WHERE oa.id < ob.id GROUP BY oa.name, ob.name`,
	`SELECT name, COUNT(*) FROM os WHERE id = 999`,
	`SELECT id FROM os WHERE id = 3 AND name = 'Debian' -- comment`,
	`SELECT id FROM vuln WHERE score <= 5.0`,
	`SELECT id, cve FROM vuln WHERE year > 2000 AND year <= 2008`,
	`SELECT cve FROM vuln WHERE score >= 2.1 AND score < 7.5 ORDER BY cve`,
	`SELECT id FROM vuln WHERE 2005 < year AND score >= 0 AND id > 10`,
	`SELECT year, COUNT(*) FROM vuln WHERE year < 'x' AND score > 1 GROUP BY year`,
	`SELECT v.cve, o.name FROM vuln v JOIN os_vuln l ON l.vuln_id = v.id JOIN os o ON o.id = l.os_id
	 WHERE v.score >= 5 AND o.id <= 2`,
	`SELECT x.id, y.id FROM vuln x JOIN vuln y ON x.score = y.score AND x.id <= y.id`,
}

// FuzzSelectMatchesOracle: normalizeSQL is idempotent on every shape it
// returns, and every SELECT that ParseSelect accepts without user `?`
// placeholders answers the same rows through DB.Query (normalize, plan
// cache, planner) as through the oracle executor — or fails in both.
// Inputs with more than 3 joins are skipped to keep the oracle's nested
// loops small.
func FuzzSelectMatchesOracle(f *testing.F) {
	for _, q := range fuzzSeeds {
		f.Add(q)
	}
	db := fuzzFixture(f)
	f.Fuzz(func(t *testing.T, sql string) {
		if shape, slots, err := normalizeSQL(sql); err == nil {
			again, slots2, err := normalizeSQL(shape)
			if err != nil || again != shape || len(slots2) != len(slots) {
				t.Fatalf("normalizeSQL(%q) = %q, then %q, %v", sql, shape, again, err)
			}
		}
		sel, err := ParseSelect(sql)
		if err != nil || countSelectPlaceholders(sel) > 0 || len(sel.Joins) > 3 {
			return
		}
		got, gotErr := db.Query(sql)
		want, wantErr := db.queryNaive(sql)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%q: planner error %v, oracle error %v", sql, gotErr, wantErr)
		}
		if gotErr == nil && !resultsEqual(want, got) {
			t.Fatalf("%q: planner %v %v, oracle %v %v", sql, got.Columns, got.Rows, want.Columns, want.Rows)
		}
	})
}
