//go:build !race

package core

import (
	"runtime"
	"testing"
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
	t.Logf("%d vulnerabilities of %d records: %.2f MiB retained", p.Len(), len(s.records), float64(retained)/(1<<20))
	if retained > 2<<20 {
		t.Fatalf("population plus two windows retain %.2f MiB, budget 2 MiB", float64(retained)/(1<<20))
	}
}
