package osdiversity

// Whole-request attack and recommend benchmarks on a warm 100k-entry,
// 32-distro synthetic epoch. They call only the facade (plus the
// study's ClearCache), so each iteration times what one /api/attack or
// /api/recommend request computes, population lookup included; the
// ClearCache variant also pays the per-epoch population build that a
// reload's first attack request pays.

import (
	"sync"
	"testing"
)

var (
	attackBenchOnce sync.Once
	attackBenchA    *Analysis
	attackBenchErr  error
)

// attackBench100k loads the 100k synthetic analysis once per process.
func attackBench100k(tb testing.TB) *Analysis {
	tb.Helper()
	attackBenchOnce.Do(func() {
		attackBenchA, attackBenchErr = LoadSynthetic(SyntheticSpec{
			Entries: synthBenchEntries, Distros: synthBenchDistros, Seed: synthBenchSeed,
		}, WithParallelism(benchWorkers))
	})
	if attackBenchErr != nil {
		tb.Fatalf("LoadSynthetic: %v", attackBenchErr)
	}
	return attackBenchA
}

var attackBenchSet = []string{"Windows2003", "Solaris", "Debian", "OpenBSD"}

func benchAttackRequest(b *testing.B, clear bool) {
	a := attackBench100k(b)
	if _, err := a.SimulateAttack("set1", attackBenchSet, 1, 100); err != nil {
		b.Fatalf("SimulateAttack: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if clear {
			a.study.ClearCache()
		}
		sum, err := a.SimulateAttack("set1", attackBenchSet, 1, 100)
		if err != nil || sum.MeanTTC <= 0 {
			b.Fatalf("SimulateAttack = %+v, %v", sum, err)
		}
	}
}

// BenchmarkAttackRequest100k times a warm attack request: Set1, F=1,
// 100 trials.
func BenchmarkAttackRequest100k(b *testing.B) { benchAttackRequest(b, false) }

// BenchmarkAttackRequest100kClearCache times the same request when the
// epoch's attack population must be built first.
func BenchmarkAttackRequest100kClearCache(b *testing.B) { benchAttackRequest(b, true) }

// BenchmarkRecommend100k times a warm recommend request at 10 trials
// per candidate schedule, the other fields at their defaults.
func BenchmarkRecommend100k(b *testing.B) {
	a := attackBench100k(b)
	spec := RecommendSpec{Trials: 10}
	if _, err := a.Recommend(spec); err != nil {
		b.Fatalf("Recommend: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := a.Recommend(spec)
		if err != nil || len(rec.Candidates) == 0 {
			b.Fatalf("Recommend = %+v, %v", rec, err)
		}
	}
}
