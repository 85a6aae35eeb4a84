//go:build !race

package core

import (
	"runtime"
	"testing"

	"osdiversity/internal/cve"
)

// TestPopulationFootprint100k bounds what the attack population keeps
// alive on the 100k synthetic corpus: the Isolated Thin Server
// population plus the lists of two windows retain at most 2 MiB of
// heap. Race builds skip it: the detector's shadow memory distorts every
// heap measurement.
func TestPopulationFootprint100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k corpus footprint skipped in -short mode")
	}
	ents, registry := syntheticSource(t)
	s := NewStudy(ents, WithRegistry(registry))
	lo, hi := s.YearRange()
	mid := (lo + hi) / 2

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := s.Population(IsolatedThinServer)
	p.Window(SelectionWindow{FromYear: lo, ToYear: mid})
	p.Window(SelectionWindow{FromYear: mid + 1, ToYear: hi})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)

	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d vulnerabilities of %d records: %.2f MiB retained", p.Len(), s.ValidEntries(), float64(retained)/(1<<20))
	if retained > 2<<20 {
		t.Fatalf("population plus two windows retain %.2f MiB, budget 2 MiB", float64(retained)/(1<<20))
	}
}

// TestDeltaChainFootprint100k bounds what a long-lived reload chain
// keeps alive: 16 alternating deltas of e2ebench's shape over the 100k
// synthetic corpus, a table pass on every epoch, and only the last
// epoch kept. Its segments' memos were computed by earlier epochs and
// outlive them, but every key is one the same pass computes on a cold
// build, so the last epoch may retain at most 1.1× what a cold build of
// its merged corpus retains after that pass.
func TestDeltaChainFootprint100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k corpus footprint skipped in -short mode")
	}
	ents, registry := syntheticSource(t)
	deltas := reloadDeltas(t)
	opts := []Option{WithRegistry(registry), WithParallelism(2)}

	retained := func(build func() *Study) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	chain := retained(func() *Study {
		epoch := NewStudy(ents, opts...)
		tablePass(epoch)
		for i := 0; i < 16; i++ {
			b := NewDeltaBuilder(epoch)
			b.Add(deltas[i%2]...)
			epoch = b.Finish()
			tablePass(epoch)
		}
		return epoch
	})
	// The last delta (the second of the pair) replaced its identifiers.
	last := make(map[cve.ID]bool, len(deltas[1]))
	for _, e := range deltas[1] {
		last[e.ID] = true
	}
	var merged []*cve.Entry
	for _, e := range ents {
		if !last[e.ID] {
			merged = append(merged, e)
		}
	}
	merged = append(merged, deltas[1]...)
	cold := retained(func() *Study {
		s := NewStudy(merged, opts...)
		tablePass(s)
		return s
	})
	t.Logf("last of 16 delta epochs retains %.2f MiB; cold build %.2f MiB", float64(chain)/(1<<20), float64(cold)/(1<<20))
	if chain > cold+cold/10 {
		t.Fatalf("delta chain retains %.2f MiB, over 1.1× the cold build's %.2f MiB", float64(chain)/(1<<20), float64(cold)/(1<<20))
	}
}
