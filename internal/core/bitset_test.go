package core

import (
	"reflect"
	"sync"
	"testing"

	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// The identity suite: the bitset engine, at worker counts 1 and 4, must
// answer every query exactly as the serial oracle (oracle_test.go) does
// on four corpora — the calibrated paper corpus, a seeded synthetic
// modern-NVD corpus, a 4-distro universe narrower than the paper's, and
// a study adopted from exported columns (the snapshot warm-start path).

// identityWorkers are the worker counts every corpus is built at.
var identityWorkers = []int{1, 4}

// identityCase is one corpus of the suite: one study per identityWorkers
// entry and the oracle's answers at the corpus's split year and window.
type identityCase struct {
	studies []*Study
	split   int
	window  SelectionWindow
	want    *oracleTables
}

type entriesSource func(t *testing.T) ([]*cve.Entry, *osmap.Registry)

// studyBuilder builds one study of a corpus at a worker count.
type studyBuilder func(t *testing.T, workers int) *Study

// onceSource memoizes a generated corpus across the suite.
func onceSource(gen func() ([]*cve.Entry, *osmap.Registry, error)) entriesSource {
	var (
		once sync.Once
		ents []*cve.Entry
		reg  *osmap.Registry
		err  error
	)
	return func(t *testing.T) ([]*cve.Entry, *osmap.Registry) {
		t.Helper()
		once.Do(func() { ents, reg, err = gen() })
		if err != nil {
			t.Fatalf("generating corpus: %v", err)
		}
		return ents, reg
	}
}

var (
	calibratedSource = onceSource(func() ([]*cve.Entry, *osmap.Registry, error) {
		c, err := corpus.Generate()
		if err != nil {
			return nil, nil, err
		}
		return c.Entries, nil, nil
	})
	syntheticSource = onceSource(func() ([]*cve.Entry, *osmap.Registry, error) {
		n := syntheticTestEntries
		if testing.Short() {
			n = syntheticTestEntriesShort
		}
		return synthetic(corpus.SyntheticConfig{Entries: n, Distros: 32, Seed: 42, Workers: 4})
	})
	// narrowSource is a universe of the first four paper distros, as
	// `osdiv -synthetic n -distros 4` builds: the paper's other distros
	// and pairs fall outside it.
	narrowSource = onceSource(func() ([]*cve.Entry, *osmap.Registry, error) {
		return synthetic(corpus.SyntheticConfig{Entries: 3000, Distros: 4, Seed: 7, Workers: 2})
	})
)

func synthetic(cfg corpus.SyntheticConfig) ([]*cve.Entry, *osmap.Registry, error) {
	sc, err := corpus.GenerateSynthetic(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sc.Entries, sc.Registry, nil
}

func fromEntries(src entriesSource) studyBuilder {
	return func(t *testing.T, workers int) *Study {
		ents, registry := src(t)
		opts := []Option{WithParallelism(workers)}
		if registry != nil {
			opts = append(opts, WithRegistry(registry))
		}
		return NewStudy(ents, opts...)
	}
}

// fromColumns adopts the exported columns of a feed-built study, as a
// snapshot warm start does.
func fromColumns(src entriesSource) studyBuilder {
	return func(t *testing.T, workers int) *Study {
		t.Helper()
		base := fromEntries(src)(t, 1)
		s, err := FromColumns(base.ExportColumns(), WithParallelism(workers), WithRegistry(base.registry))
		if err != nil {
			t.Fatalf("FromColumns: %v", err)
		}
		return s
	}
}

func identityCorpora() map[string]studyBuilder {
	return map[string]studyBuilder{
		"calibrated": fromEntries(calibratedSource),
		"synthetic":  fromEntries(syntheticSource),
		"narrow4":    fromEntries(narrowSource),
		"columns":    fromColumns(calibratedSource),
	}
}

var (
	identityMu    sync.Mutex
	identityCache = map[string]*identityCase{}
)

// identityFor builds (once per corpus) the studies and the oracle's
// answers over the first of them. Studies are shared across tests, so
// memoized tables carry over and each is computed once per study.
func identityFor(t *testing.T, name string) *identityCase {
	t.Helper()
	identityMu.Lock()
	defer identityMu.Unlock()
	if c, ok := identityCache[name]; ok {
		return c
	}
	build := identityCorpora()[name]
	c := &identityCase{}
	for _, w := range identityWorkers {
		c.studies = append(c.studies, build(t, w))
	}
	lo, hi := c.studies[0].YearRange()
	c.split = (lo + hi) / 2
	c.window = SelectionWindow{FromYear: lo + 1, ToYear: c.split}
	c.want = oracleAnswers(c.studies[0], c.split, c.window)
	identityCache[name] = c
	return c
}

// forEachStudy runs check against the oracle for every study of every
// corpus, one subtest per corpus.
func forEachStudy(t *testing.T, check func(t *testing.T, c *identityCase, s *Study)) {
	for name := range identityCorpora() {
		t.Run(name, func(t *testing.T) {
			c := identityFor(t, name)
			for _, s := range c.studies {
				check(t, c, s)
			}
		})
	}
}

func TestEngineIdentityTables(t *testing.T) {
	forEachStudy(t, func(t *testing.T, c *identityCase, s *Study) {
		w := s.Parallelism()
		rows, distinct := s.ValidityTable()
		if !reflect.DeepEqual(rows, c.want.validityRows) || distinct != c.want.validityDistinct {
			t.Errorf("workers %d: ValidityTable differs from the oracle", w)
		}
		crows, shares := s.ClassTable()
		if !reflect.DeepEqual(crows, c.want.classRows) || shares != c.want.classShares {
			t.Errorf("workers %d: ClassTable differs from the oracle", w)
		}
	})
}

func TestEngineIdentityPairsAndTotals(t *testing.T) {
	forEachStudy(t, func(t *testing.T, c *identityCase, s *Study) {
		w := s.Parallelism()
		for _, profile := range Profiles() {
			want := make(map[osmap.Pair]int, len(s.pairs))
			for _, p := range s.pairs {
				want[p] = c.want.pairs[p].overlap[profile-1]
			}
			if pm := s.PairMatrix(profile); !reflect.DeepEqual(pm, want) {
				t.Errorf("workers %d: PairMatrix(%v) differs from the oracle", w, profile)
			}
			for p, o := range c.want.pairs {
				if got := s.Overlap(p, profile); got != o.overlap[profile-1] {
					t.Errorf("workers %d: Overlap(%v, %v) = %d, oracle %d", w, p, profile, got, o.overlap[profile-1])
				}
			}
			for d, o := range c.want.distros {
				if got := s.Total(d, profile); got != o.total[profile-1] {
					t.Errorf("workers %d: Total(%v, %v) = %d, oracle %d", w, d, profile, got, o.total[profile-1])
				}
			}
		}
		from, to := make([]int, len(s.pairs)), make([]int, len(s.pairs))
		for i, p := range s.pairs {
			from[i] = c.want.pairs[p].overlap[FatServer-1]
			to[i] = c.want.pairs[p].overlap[IsolatedThinServer-1]
		}
		if got, want := s.FilterReduction(FatServer, IsolatedThinServer), FilterReductionFrom(from, to); got != want {
			t.Errorf("workers %d: FilterReduction = %v, oracle %v", w, got, want)
		}
	})
}

func TestEngineIdentityPartsPeriodsWindows(t *testing.T) {
	forEachStudy(t, func(t *testing.T, c *identityCase, s *Study) {
		w := s.Parallelism()
		for p, o := range c.want.pairs {
			if got := s.PartBreakdown(p); got != o.parts {
				t.Errorf("workers %d: PartBreakdown(%v) = %+v, oracle %+v", w, p, got, o.parts)
			}
			if got := s.PeriodSplit(p, c.split); got != o.period {
				t.Errorf("workers %d: PeriodSplit(%v, %d) = %+v, oracle %+v", w, p, c.split, got, o.period)
			}
			if got := s.PairSharedInWindow(p, c.window); got != o.window {
				t.Errorf("workers %d: PairSharedInWindow(%v) = %d, oracle %d", w, p, got, o.window)
			}
		}
		for d, o := range c.want.distros {
			if got := s.TemporalSeries(d); !reflect.DeepEqual(got, o.temporal) {
				t.Errorf("workers %d: TemporalSeries(%v) = %v, oracle %v", w, d, got, o.temporal)
			}
			if got := s.SetCost([]osmap.Distro{d}, c.window); got != o.window {
				t.Errorf("workers %d: homogeneous SetCost(%v) = %d, oracle %d", w, d, got, o.window)
			}
		}
		candidates := osmap.HistoryEligible()
		if got, want := s.SetCost(candidates, c.window), c.want.setCost(candidates); got != want {
			t.Errorf("workers %d: SetCost(%v) = %d, oracle %d", w, candidates, got, want)
		}
		for _, strategy := range []Strategy{MinPairSum, OnePerFamily} {
			got := s.RankReplicaSets(candidates, 4, strategy, c.window)
			want := RankSetsFromCosts(candidates, 4, strategy,
				func(p osmap.Pair) int { return c.want.pairs[p].window },
				func(d osmap.Distro) int { return c.want.distros[d].window })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers %d: RankReplicaSets(%v) differs from the oracle", w, strategy)
			}
		}
	})
}

func TestEngineIdentityKWiseMostSharedReleases(t *testing.T) {
	forEachStudy(t, func(t *testing.T, c *identityCase, s *Study) {
		w := s.Parallelism()
		for _, profile := range Profiles() {
			if got := s.KWiseClusters(profile); !reflect.DeepEqual(got, c.want.kwiseClusters[profile]) {
				t.Errorf("workers %d: KWiseClusters(%v) = %v, oracle %v", w, profile, got, c.want.kwiseClusters[profile])
			}
			if got := s.KWiseProducts(profile); !reflect.DeepEqual(got, c.want.kwiseProducts[profile]) {
				t.Errorf("workers %d: KWiseProducts(%v) = %v, oracle %v", w, profile, got, c.want.kwiseProducts[profile])
			}
		}
		most := s.MostSharedEntries(len(s.records))
		if len(most) != len(c.want.mostShared) {
			t.Fatalf("workers %d: MostSharedEntries length %d, oracle %d", w, len(most), len(c.want.mostShared))
		}
		for i := range most {
			if most[i].ID != c.want.mostShared[i] {
				t.Fatalf("workers %d: MostSharedEntries[%d] = %v, oracle %v", w, i, most[i].ID, c.want.mostShared[i])
			}
		}
		for p, want := range c.want.releases {
			va, vb := firstRelease(s, p.A), firstRelease(s, p.B)
			if got := s.ReleaseOverlap(p.A, va, p.B, vb); got != want {
				t.Errorf("workers %d: ReleaseOverlap(%v %s, %v %s) = %d, oracle %d", w, p.A, va, p.B, vb, got, want)
			}
		}
	})
}

// TestNarrowUniverseZeroFallbacks pins what a universe narrower than the
// paper's answers about the paper distros and pairs it lacks — the
// history-eligible pairs /api/table5 and /api/select ask about: every
// per-distro and per-pair query returns its zero value.
func TestNarrowUniverseZeroFallbacks(t *testing.T) {
	c := identityFor(t, "narrow4")
	for _, s := range c.studies {
		w := s.Parallelism()
		if got := len(s.Distros()); got != 4 {
			t.Fatalf("narrow universe has %d distros, want 4", got)
		}
		outside := 0
		for _, d := range osmap.Distros() {
			if _, ok := s.index[d]; ok {
				continue
			}
			outside++
			for _, profile := range Profiles() {
				if got := s.Total(d, profile); got != 0 {
					t.Errorf("workers %d: Total(%v, %v) = %d outside the universe", w, d, profile, got)
				}
			}
			if got := s.TemporalSeries(d); got == nil || len(got) != 0 {
				t.Errorf("workers %d: TemporalSeries(%v) = %#v outside the universe, want an empty map", w, d, got)
			}
			if got := s.SetCost([]osmap.Distro{d}, c.window); got != 0 {
				t.Errorf("workers %d: SetCost(%v) = %d outside the universe", w, d, got)
			}
		}
		if outside != osmap.NumDistros-4 {
			t.Fatalf("workers %d: %d paper distros outside the universe, want %d", w, outside, osmap.NumDistros-4)
		}
		for _, p := range osmap.AllPairs() {
			if _, ok := s.pairIdx[p]; ok {
				continue
			}
			for _, profile := range Profiles() {
				if got := s.Overlap(p, profile); got != 0 {
					t.Errorf("workers %d: Overlap(%v, %v) = %d outside the universe", w, p, profile, got)
				}
			}
			if got := s.PartBreakdown(p); got != (PartCounts{}) {
				t.Errorf("workers %d: PartBreakdown(%v) = %+v outside the universe", w, p, got)
			}
			if got := s.PeriodSplit(p, c.split); got != (PeriodCounts{}) {
				t.Errorf("workers %d: PeriodSplit(%v) = %+v outside the universe", w, p, got)
			}
			if got := s.PairSharedInWindow(p, c.window); got != 0 {
				t.Errorf("workers %d: PairSharedInWindow(%v) = %d outside the universe", w, p, got)
			}
		}
	}
}

func TestBitsetRangeKernels(t *testing.T) {
	// 200-bit patterns across word boundaries.
	a := make([]uint64, 4)
	b := make([]uint64, 4)
	set := func(bs []uint64, i int) { bs[i>>6] |= 1 << uint(i&63) }
	idxs := []int{0, 1, 63, 64, 65, 127, 128, 190, 199}
	for _, i := range idxs {
		set(a, i)
		if i%2 == 0 {
			set(b, i)
		}
	}
	for lo := 0; lo <= 200; lo += 7 {
		for hi := lo; hi <= 200; hi += 13 {
			wantA, wantAB := 0, 0
			for _, i := range idxs {
				if i >= lo && i < hi {
					wantA++
					if i%2 == 0 {
						wantAB++
					}
				}
			}
			if got := popcountRange(a, lo, hi); got != wantA {
				t.Fatalf("popcountRange(%d,%d) = %d, want %d", lo, hi, got, wantA)
			}
			if got := andPopcountRange(a, b, lo, hi); got != wantAB {
				t.Fatalf("andPopcountRange(%d,%d) = %d, want %d", lo, hi, got, wantAB)
			}
		}
	}
}
