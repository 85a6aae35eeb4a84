package core

import (
	"sync"
	"testing"

	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// reloadYear is the publication year the reload deltas rewrite, as in
// e2ebench: one year of 24 in the synthetic corpus.
const reloadYear = 2003

// reloadDeltas returns two deltas of e2ebench's reload shape over the
// synthetic identity corpus: its reloadYear identifiers, rewritten once
// from each of two other generator seeds at the corpus's size. Built
// once per process.
func reloadDeltas(tb testing.TB) [2][]*cve.Entry {
	tb.Helper()
	ents, _ := syntheticSource(tb)
	reloadOnce.Do(func() {
		// A year's synthetic identifiers run contiguously from one fixed
		// sequence number, so the shortest year bounds the shared ones.
		short := len(entriesOfYear(ents, reloadYear))
		for i := range reloadFix.deltas {
			var other []*cve.Entry
			other, _, reloadFix.err = synthetic(corpus.SyntheticConfig{Entries: len(ents), Distros: 32, Seed: 43 + uint64(i), Workers: 4})
			if reloadFix.err != nil {
				return
			}
			reloadFix.deltas[i] = entriesOfYear(other, reloadYear)
			short = min(short, len(reloadFix.deltas[i]))
		}
		for i, d := range reloadFix.deltas {
			reloadFix.deltas[i] = d[:short:short]
		}
	})
	if reloadFix.err != nil {
		tb.Fatalf("reload deltas: %v", reloadFix.err)
	}
	return reloadFix.deltas
}

var (
	reloadOnce sync.Once
	reloadFix  struct {
		deltas [2][]*cve.Entry
		err    error
	}
)

func entriesOfYear(entries []*cve.Entry, year int) []*cve.Entry {
	for _, g := range corpus.SplitByYear(entries) {
		if g.Year == year {
			return g.Entries
		}
	}
	return nil
}

// paperReleaseGrid is the release set of the paper's Table VI, the grid
// /api/releases answers.
var paperReleaseGrid = []osmap.Release{
	{Distro: osmap.Debian, Version: "2.1"}, {Distro: osmap.Debian, Version: "3.0"}, {Distro: osmap.Debian, Version: "4.0"},
	{Distro: osmap.RedHat, Version: "6.2*"}, {Distro: osmap.RedHat, Version: "4.0"}, {Distro: osmap.RedHat, Version: "5.0"},
}

// tablePass asks the Study every question behind e2ebench's table
// warm-up pass (everyTable): Tables I-V, k-wise, one temporal series,
// a most-shared prefix, one replica selection, the Table VI grid and
// one release cell.
func tablePass(s *Study) {
	s.ValidityTable()
	s.ClassTable()
	for _, profile := range Profiles() {
		for _, d := range s.distros {
			s.Total(d, profile)
		}
		s.PairMatrix(profile)
		s.KWiseProducts(profile)
		s.KWiseClusters(profile)
	}
	s.FilterReduction(FatServer, IsolatedThinServer)
	for _, p := range s.pairs {
		s.PartBreakdown(p)
		s.PeriodSplit(p, 2005)
	}
	s.TemporalSeries(s.distros[0])
	s.MostSharedCounts(3)
	s.RankReplicaSets(osmap.HistoryEligible(), 4, MinPairSum, SelectionWindow{ToYear: 2005})
	for i, a := range paperReleaseGrid {
		for _, b := range paperReleaseGrid[i+1:] {
			s.ReleaseOverlap(a.Distro, a.Version, b.Distro, b.Version)
		}
	}
	s.ReleaseOverlap(s.distros[0], firstRelease(s, s.distros[0]), s.distros[1], firstRelease(s, s.distros[1]))
}

// BenchmarkDeltaMemoRefill100k times the first table pass on a freshly
// derived epoch — a reload delta over the warm 100k corpus — the work
// behind e2ebench's core.memo_refill_ms. The epoch's untouched years
// bring their base's memos; its rebuilt year and its own tables compute.
func BenchmarkDeltaMemoRefill100k(b *testing.B) {
	ents, registry := syntheticSource(b)
	deltas := reloadDeltas(b)
	base := NewStudy(ents, WithRegistry(registry), WithParallelism(2))
	tablePass(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := NewDeltaBuilder(base)
		d.Add(deltas[i%2]...)
		epoch := d.Finish()
		b.StartTimer()
		tablePass(epoch)
	}
}
