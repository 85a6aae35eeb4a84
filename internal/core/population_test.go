package core

import (
	"fmt"
	"slices"
	"testing"
)

// checkPopulation compares every profile's attack population, and its
// lists in a few windows, against the ID-sorted serial walk.
func checkPopulation(t *testing.T, s *Study, windows []SelectionWindow) {
	t.Helper()
	recs := flatRecords(s)
	for _, profile := range Profiles() {
		p := s.Population(profile)
		if s.Population(profile) != p {
			t.Fatalf("%v: population rebuilt on the second call", profile)
		}
		masks, years, _ := oraclePopulation(s, recs, profile, SelectionWindow{})
		if p.Len() != len(masks) {
			t.Fatalf("%v: population has %d vulnerabilities, walk has %d", profile, p.Len(), len(masks))
		}
		for i := range masks {
			if !p.Mask(i).Equal(masks[i]) || int(p.years[i]) != years[i] {
				t.Fatalf("%v: vulnerability %d = (%v, %d), walk (%v, %d)", profile, i, p.Mask(i), p.years[i], masks[i], years[i])
			}
		}
		for _, w := range windows {
			_, _, want := oraclePopulation(s, recs, profile, w)
			got := p.Window(w)
			if len(got) != len(want) {
				t.Fatalf("%v %+v: %d distro lists, want %d", profile, w, len(got), len(want))
			}
			for b := range want {
				if !slices.Equal(got[b], want[b]) {
					t.Fatalf("%v %+v: %v's list has %d entries, walk %d", profile, w, s.distros[b], len(got[b]), len(want[b]))
				}
			}
		}
	}
	p := s.Population(IsolatedThinServer)
	for _, d := range probeDistros(s) {
		b, ok := p.Bit(d)
		if want, in := s.index[d]; ok != in || (ok && b != want) {
			t.Errorf("Bit(%v) = %d, %v; universe index %d, %v", d, b, ok, want, in)
		}
	}
}

// TestPopulationIdentity checks the attack population of feed-built,
// column-adopted and delta-built studies against the serial walk, for
// every profile, at the whole population and three windows.
func TestPopulationIdentity(t *testing.T) {
	forEachStudy(t, func(t *testing.T, c *identityCase, s *Study) {
		t.Run(fmt.Sprintf("workers%d", s.Parallelism()), func(t *testing.T) {
			checkPopulation(t, s, []SelectionWindow{{}, c.window,
				{ToYear: c.split}, {FromYear: c.split + 1}})
		})
	})
	t.Run("delta", func(t *testing.T) {
		fx := makeDeltaFixture(t)
		base := NewStudy(fx.base)
		base.Population(IsolatedThinServer) // a warm base must not leak into the derived study
		b := NewDeltaBuilder(base)
		b.Add(fx.delta...)
		s := b.Finish()
		lo, hi := s.YearRange()
		checkPopulation(t, s, []SelectionWindow{{}, {FromYear: lo + 1, ToYear: hi - 1}, {ToYear: (lo + hi) / 2}})
		want := NewStudy(fx.merged).Population(IsolatedThinServer)
		got := s.Population(IsolatedThinServer)
		if !slices.Equal(got.masks, want.masks) || !slices.Equal(got.years, want.years) {
			t.Fatal("delta-built population differs from the cold build's")
		}
	})
}
