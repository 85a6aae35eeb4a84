package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"osdiversity/internal/corpus"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// The identity suite: the bitset engine, at worker counts 1 and 4, must
// answer every query exactly as the serial oracle (oracle_test.go) does
// on five corpora — the calibrated paper corpus, a seeded synthetic
// modern-NVD corpus, a 4-distro universe narrower than the paper's, a
// study adopted from exported columns (the snapshot warm-start path),
// and the calibrated corpus out of year order with release-reference
// edges planted.

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

type entriesSource func(tb testing.TB) ([]*cve.Entry, *osmap.Registry)

// studyBuilder builds one study of a corpus at a worker count.
type studyBuilder func(t *testing.T, src entriesSource, workers int) *Study

// identityCorpus names a corpus's source entries and how its studies
// are built from them.
type identityCorpus struct {
	src   entriesSource
	build studyBuilder
}

// onceSource memoizes a generated corpus across the suite.
func onceSource(gen func() ([]*cve.Entry, *osmap.Registry, error)) entriesSource {
	var (
		once sync.Once
		ents []*cve.Entry
		reg  *osmap.Registry
		err  error
	)
	return func(tb testing.TB) ([]*cve.Entry, *osmap.Registry) {
		tb.Helper()
		once.Do(func() { ents, reg, err = gen() })
		if err != nil {
			tb.Fatalf("generating corpus: %v", err)
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
	// edgesSource is the calibrated corpus reversed, so input order is
	// not year order, with two release-reference edges planted that the
	// generated corpora lack: every fifth entry repeats its first
	// clustered product under another update (a duplicate reference), and
	// every seventh also names that product's distro as an
	// application-part CPE at the distro's first recorded release.
	edgesSource = onceSource(func() ([]*cve.Entry, *osmap.Registry, error) {
		c, err := corpus.Generate()
		if err != nil {
			return nil, nil, err
		}
		registry := osmap.NewRegistry()
		ents := make([]*cve.Entry, len(c.Entries))
		for i, e := range c.Entries {
			e = e.Clone()
			ents[len(ents)-1-i] = e
			k := slices.IndexFunc(e.Products, func(p cpe.Name) bool {
				_, ok := registry.Cluster(p)
				return ok
			})
			if k < 0 {
				continue
			}
			first := e.Products[k]
			if i%5 == 0 {
				dup := first
				dup.Update = "edge-update"
				e.Products = append(e.Products, dup)
			}
			if i%7 == 0 {
				app := first
				app.Part = cpe.PartApplication
				app.Version = "app-only"
				if d, _ := registry.Cluster(first); len(registry.Releases(d)) > 0 {
					app.Version = registry.Releases(d)[0].Version
				}
				e.Products = append(e.Products, app)
			}
		}
		return ents, nil, nil
	})
)

func synthetic(cfg corpus.SyntheticConfig) ([]*cve.Entry, *osmap.Registry, error) {
	sc, err := corpus.GenerateSynthetic(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sc.Entries, sc.Registry, nil
}

func fromEntries(t *testing.T, src entriesSource, workers int) *Study {
	ents, registry := src(t)
	opts := []Option{WithParallelism(workers)}
	if registry != nil {
		opts = append(opts, WithRegistry(registry))
	}
	return NewStudy(ents, opts...)
}

// fromColumns adopts the exported columns of a feed-built study, as a
// snapshot warm start does.
func fromColumns(t *testing.T, src entriesSource, workers int) *Study {
	t.Helper()
	base := fromEntries(t, src, 1)
	s, err := FromColumns(base.ExportColumns(), WithParallelism(workers), WithRegistry(base.registry))
	if err != nil {
		t.Fatalf("FromColumns: %v", err)
	}
	return s
}

func identityCorpora() map[string]identityCorpus {
	return map[string]identityCorpus{
		"calibrated": {calibratedSource, fromEntries},
		"synthetic":  {syntheticSource, fromEntries},
		"narrow4":    {narrowSource, fromEntries},
		"columns":    {calibratedSource, fromColumns},
		"edges":      {edgesSource, fromEntries},
	}
}

var (
	identityMu    sync.Mutex
	identityCache = map[string]*identityCase{}
)

// identityFor builds (once per corpus) the studies and the oracle's
// answers over the first of them and the corpus's source entries.
// Studies are shared across tests, so memoized tables carry over and
// each is computed once per study.
func identityFor(t *testing.T, name string) *identityCase {
	t.Helper()
	identityMu.Lock()
	defer identityMu.Unlock()
	if c, ok := identityCache[name]; ok {
		return c
	}
	corp := identityCorpora()[name]
	c := &identityCase{}
	for _, w := range identityWorkers {
		c.studies = append(c.studies, corp.build(t, corp.src, w))
	}
	lo, hi := c.studies[0].YearRange()
	c.split = (lo + hi) / 2
	c.window = SelectionWindow{FromYear: lo + 1, ToYear: c.split}
	ents, _ := corp.src(t)
	c.want = oracleAnswers(c.studies[0], entriesByID(t, ents), c.split, c.window)
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
		most := s.MostSharedCounts(s.ValidEntries())
		if len(most) != len(c.want.mostShared) {
			t.Fatalf("workers %d: MostSharedCounts length %d, oracle %d", w, len(most), len(c.want.mostShared))
		}
		for i := range most {
			if most[i].ID != c.want.mostShared[i] {
				t.Fatalf("workers %d: MostSharedCounts[%d] = %v, oracle %v", w, i, most[i].ID, c.want.mostShared[i])
			}
		}
		cols := s.ExportColumns()
		if rc := (relColumns{off: cols.RelOff, refs: cols.RelRefs, versions: cols.RelVersions}); !relColumnsEqual(&rc, &c.want.relCols) {
			t.Errorf("workers %d: release columns differ from the oracle's entry walk", w)
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

// TestBitsetRangeKernels checks the two bit-range kernels that move
// postings between whole-corpus columns and year segments: extractBits
// cuts [lo, hi) out of a bitset, and appendBits concatenates bitsets at
// any bit offset, across word boundaries.
func TestBitsetRangeKernels(t *testing.T) {
	// A 200-bit pattern across word boundaries.
	a := make([]uint64, 4)
	idxs := []int{0, 1, 63, 64, 65, 127, 128, 190, 199}
	for _, i := range idxs {
		a[i>>6] |= 1 << uint(i&63)
	}
	has := func(bs []uint64, i int) bool { return bs[i>>6]&(1<<uint(i&63)) != 0 }
	for lo := 0; lo <= 200; lo += 7 {
		for hi := lo; hi <= 200; hi += 13 {
			got := make([]uint64, (hi-lo+63)/64)
			extractBits(got, a, lo, hi)
			if len(got) != (hi-lo+63)/64 {
				t.Fatalf("extractBits(%d,%d) has %d words", lo, hi, len(got))
			}
			for i := 0; i < len(got)*64; i++ {
				want := i < hi-lo && slices.Contains(idxs, lo+i)
				if has(got, i) != want {
					t.Fatalf("extractBits(%d,%d) bit %d = %v, want %v", lo, hi, i, !want, want)
				}
			}
			// Cutting at lo and hi and appending the three pieces back
			// together restores the pattern.
			var joined []uint64
			nbits := 0
			for _, cut := range [][2]int{{0, lo}, {lo, hi}, {hi, 200}} {
				piece := make([]uint64, (cut[1]-cut[0]+63)/64)
				extractBits(piece, a, cut[0], cut[1])
				joined = appendBits(joined, nbits, piece, cut[1]-cut[0])
				nbits += cut[1] - cut[0]
			}
			if !slices.Equal(joined, a) {
				t.Fatalf("appendBits of the cuts at %d, %d = %x, want %x", lo, hi, joined, a)
			}
		}
	}
}
