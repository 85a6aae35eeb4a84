package core

import (
	"reflect"
	"runtime"
	"testing"
	"weak"

	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
)

// addInBatches feeds entries to the builder in fixed-size batches.
func addInBatches(b *Builder, entries []*cve.Entry, batch int) {
	for lo := 0; lo < len(entries); lo += batch {
		hi := lo + batch
		if hi > len(entries) {
			hi = len(entries)
		}
		b.Add(entries[lo:hi]...)
	}
}

// studyFingerprint captures every table the engine answers, for
// whole-study identity comparison.
func studyFingerprint(s *Study) map[string]any {
	rows, distinct := s.ValidityTable()
	classRows, shares := s.ClassTable()
	fp := map[string]any{
		"validity":  rows,
		"distinct":  distinct,
		"class":     classRows,
		"shares":    shares,
		"kwiseProd": s.KWiseProducts(FatServer),
		"kwiseClus": s.KWiseClusters(IsolatedThinServer),
		"skipped":   s.SkippedEntries(),
	}
	for _, p := range Profiles() {
		fp["pairs"+p.String()] = s.PairMatrix(p)
	}
	for _, d := range s.Distros() {
		fp["temporal"+d.String()] = s.TemporalSeries(d)
	}
	for _, p := range s.Pairs() {
		fp["period"+p.A.String()+p.B.String()] = s.PeriodSplit(p, 2005)
		fp["parts"+p.A.String()+p.B.String()] = s.PartBreakdown(p)
	}
	return fp
}

// TestBuilderMatchesNewStudy asserts the incremental builder lands on a
// Study identical to the all-at-once path, for any batch split and
// worker count.
func TestBuilderMatchesNewStudy(t *testing.T) {
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	for _, tc := range []struct {
		name  string
		batch int
		opts  []Option
	}{
		{"bitset serial batch1", 1, nil},
		{"bitset serial batch17", 17, nil},
		{"bitset parallel", 512, []Option{WithParallelism(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := NewStudy(c.Entries, tc.opts...)
			b := NewBuilder(tc.opts...)
			addInBatches(b, c.Entries, tc.batch)
			s := b.Finish()
			if !reflect.DeepEqual(studyFingerprint(s), studyFingerprint(want)) {
				t.Fatal("builder study differs from NewStudy")
			}
		})
	}
}

// TestBuilderGuards asserts use-after-Finish panics rather than
// silently corrupting an immutable Study.
func TestBuilderGuards(t *testing.T) {
	b := NewBuilder()
	b.Finish()
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Finish did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("Add", func() { b.Add(nil...) })
	assertPanics("Finish", func() { b.Finish() })
}

// TestStudyRetainsNoEntries asserts a Study holds digests only: every
// entry handed to NewStudy, Builder.Add and DeltaBuilder.Add is
// collectable while the studies built from them stay reachable.
func TestStudyRetainsNoEntries(t *testing.T) {
	var handed []weak.Pointer[cve.Entry]
	track := func(entries []*cve.Entry) []*cve.Entry {
		for _, e := range entries {
			handed = append(handed, weak.Make(e))
		}
		return entries
	}
	studies := func() []*Study {
		fx := makeDeltaFixture(t)
		cold := NewStudy(track(fx.base), WithParallelism(4))
		b := NewBuilder()
		addInBatches(b, track(fx.merged), 64)
		d := NewDeltaBuilder(cold)
		applyInBatches(d, track(fx.delta), 3)
		return []*Study{cold, b.Finish(), d.Finish()}
	}()
	runtime.GC()
	live := 0
	for _, w := range handed {
		if w.Value() != nil {
			live++
		}
	}
	if live > 0 {
		t.Errorf("%d of %d ingested entries still reachable from the finished studies", live, len(handed))
	}
	runtime.KeepAlive(studies)
}
