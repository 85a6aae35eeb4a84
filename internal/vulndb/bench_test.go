package vulndb

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
)

// The SQL-path headline benchmark: the full Table III pairwise matrix
// over the seeded 100k-entry synthetic corpus (32 distros, 496 pairs).
// "Naive" is the pre-planner shape of the workload — one SharedCount
// query per pair, each rebuilding its joins — and "Planned" is the
// single grouped hash-join plan of SharedMatrix. CI records the ratio
// in BENCH_relstore.json as speedup_naive_over_planned.

const (
	benchMatrixEntries = 100_000
	benchMatrixDistros = 32
	benchWorkers       = 4
)

var benchMatrixOnce struct {
	sync.Once
	db    *DB
	study *core.Study
	err   error
}

func benchMatrixDB(b *testing.B) (*DB, *core.Study) {
	b.Helper()
	benchMatrixOnce.Do(func() {
		sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
			Entries: benchMatrixEntries, Distros: benchMatrixDistros,
			Seed: 1, Workers: benchWorkers,
		})
		if err != nil {
			benchMatrixOnce.err = err
			return
		}
		db, err := CreateForRegistry(sc.Registry)
		if err != nil {
			benchMatrixOnce.err = err
			return
		}
		db.SetParallelism(benchWorkers)
		if _, _, err := db.LoadEntries(sc.Entries, classify.NewClassifier()); err != nil {
			benchMatrixOnce.err = err
			return
		}
		benchMatrixOnce.db = db
		benchMatrixOnce.study = core.NewStudy(sc.Entries,
			core.WithRegistry(sc.Registry), core.WithParallelism(benchWorkers))
	})
	if benchMatrixOnce.err != nil {
		b.Fatal(benchMatrixOnce.err)
	}
	return benchMatrixOnce.db, benchMatrixOnce.study
}

// BenchmarkSQLPairMatrix100kNaive is the per-pair loop: 496 SharedCount
// queries, the path vulndb used before the grouped matrix existed.
func BenchmarkSQLPairMatrix100kNaive(b *testing.B) {
	db, study := benchMatrixDB(b)
	pairs := study.Pairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, p := range pairs {
			n, err := db.SharedCount(p.A.String(), p.B.String())
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		if total == 0 {
			b.Fatal("no shared vulnerabilities")
		}
	}
}

// BenchmarkSQLPairMatrix100kPlanned answers all 496 pairs in one
// grouped hash-join plan.
func BenchmarkSQLPairMatrix100kPlanned(b *testing.B) {
	db, _ := benchMatrixDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := db.SharedMatrix()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, cell := range m {
			total += cell.Shared
		}
		if total == 0 {
			b.Fatal("no shared vulnerabilities")
		}
	}
}

// BenchmarkStudyPairMatrix100k is the in-memory reference the SQL path
// is measured against (the same Table III workload on the bitset
// engine, cache cleared each iteration).
func BenchmarkStudyPairMatrix100k(b *testing.B) {
	_, study := benchMatrixDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study.ClearCache()
		if len(study.PairMatrix(core.FatServer)) == 0 {
			b.Fatal("empty pair matrix")
		}
	}
}

// sqlShapes are e2ebench's five plain-SELECT shapes of the sql class,
// each drawing its literals from r over the database's universe: os
// ids 1..oses and years lo..hi.
var sqlShapes = []struct {
	name  string
	query func(r *rand.Rand, oses, lo, hi int) string
}{
	{"year_id_range", func(r *rand.Rand, oses, lo, hi int) string {
		id := 1 + r.IntN(100_000)
		return fmt.Sprintf("SELECT id, name, published FROM vulnerability WHERE year = %d AND id > %d AND id < %d",
			lo+r.IntN(hi-lo+1), id, id+2000)
	}},
	{"os_by_vuln", func(r *rand.Rand, oses, lo, hi int) string {
		return fmt.Sprintf("SELECT os.name, os_vuln.version FROM os_vuln JOIN os ON os.id = os_vuln.os_id WHERE os_vuln.vuln_id = %d",
			1+r.IntN(100_000))
	}},
	{"product_by_vuln", func(r *rand.Rand, oses, lo, hi int) string {
		return fmt.Sprintf("SELECT product.vendor, product.name, vuln_product.version FROM vuln_product JOIN product ON product.id = vuln_product.product_id WHERE vuln_product.vuln_id = %d",
			1+r.IntN(100_000))
	}},
	{"os_year_join", func(r *rand.Rand, oses, lo, hi int) string {
		return fmt.Sprintf("SELECT vulnerability.name, os_vuln.version FROM os_vuln JOIN vulnerability ON vulnerability.id = os_vuln.vuln_id WHERE os_vuln.os_id = %d AND vulnerability.year = %d",
			1+r.IntN(oses), lo+r.IntN(hi-lo+1))
	}},
	{"os_vuln_range", func(r *rand.Rand, oses, lo, hi int) string {
		id := 1 + r.IntN(100_000)
		return fmt.Sprintf("SELECT vuln_id, version FROM os_vuln WHERE os_id = %d AND vuln_id > %d AND vuln_id < %d",
			1+r.IntN(oses), id, id+1500)
	}},
}

// shapeQueries is how many seeded literal draws one iteration of
// BenchmarkSQLShapes100k runs per shape, so that one iteration times
// well over a microsecond and ns/op is the cost of that many queries.
const shapeQueries = 100

// BenchmarkSQLShapes100k runs e2ebench's SQL shapes through
// Store().Query on the 100k database, one sub-benchmark per shape, each
// iteration over the same shapeQueries seeded literal draws.
func BenchmarkSQLShapes100k(b *testing.B) {
	db, _ := benchMatrixDB(b)
	oses, err := db.Store().QueryInt(`SELECT COUNT(*) FROM os`)
	if err != nil {
		b.Fatal(err)
	}
	years, err := db.Store().Query(`SELECT MIN(year), MAX(year) FROM vulnerability`)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := int(years.Rows[0][0].AsInt()), int(years.Rows[0][1].AsInt())
	for i, shape := range sqlShapes {
		r := rand.New(rand.NewPCG(1, uint64(i)))
		queries := make([]string, shapeQueries)
		for j := range queries {
			queries[j] = shape.query(r, int(oses), lo, hi)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					res, err := db.Store().Query(q)
					if err != nil {
						b.Fatal(err)
					}
					rows += len(res.Rows)
				}
			}
			b.ReportMetric(float64(rows)/float64(b.N*shapeQueries), "rows/query")
		})
	}
}
