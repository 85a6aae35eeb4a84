package vulndb

import (
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
