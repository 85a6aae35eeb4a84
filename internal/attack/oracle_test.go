package attack

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// The reference oracle of the identity tests: the static attack as it
// ran before it became a one-step rotation, over per-OS vulnerability
// lists digested straight from the corpus entries (validity, the
// Isolated Thin Server filter, registry clustering, CVE-ID order). It
// shares no code with core's population or the campaign loop, so
// agreement is an N-version check of both.

// refVuln is one vulnerability with its affected distributions.
type refVuln struct {
	id      cve.ID
	distros []osmap.Distro
}

// refModel holds the per-OS vulnerability lists in CVE-ID order.
type refModel struct {
	byOS map[osmap.Distro][]refVuln
}

func newRefModel(entries []*cve.Entry, reg *osmap.Registry) *refModel {
	if reg == nil {
		reg = osmap.NewRegistry()
	}
	cl := classify.NewClassifier()
	var vulns []refVuln
	for _, e := range entries {
		if classify.EntryValidity(e) != classify.Valid || !e.Remote() || cl.Classify(e) == classify.ClassApplication {
			continue
		}
		seen := make(map[osmap.Distro]bool)
		var ds []osmap.Distro
		for _, p := range e.Products {
			if !p.IsOS() {
				continue
			}
			if d, ok := reg.Cluster(p); ok && !seen[d] {
				seen[d] = true
				ds = append(ds, d)
			}
		}
		if len(ds) > 0 {
			vulns = append(vulns, refVuln{id: e.ID, distros: ds})
		}
	}
	sort.SliceStable(vulns, func(i, j int) bool { return vulns[i].id.Less(vulns[j].id) })
	m := &refModel{byOS: make(map[osmap.Distro][]refVuln)}
	for _, v := range vulns {
		for _, d := range v.distros {
			m.byOS[d] = append(m.byOS[d], v)
		}
	}
	return m
}

// simulate is the pre-rotation Simulate, verbatim but for the model.
func (m *refModel) simulate(sc Scenario, seed uint64) Result {
	rnd := rng{state: seed*0x9E3779B97F4A7C15 + 1}
	compromisedOS := make(map[osmap.Distro]bool)
	replicasDown := func() int {
		n := 0
		for _, os := range sc.OSes {
			if compromisedOS[os] {
				n++
			}
		}
		return n
	}
	now := 0.0
	campaigns := 0
	for {
		var target osmap.Distro
		bestCover := 0
		for _, os := range distinctOSes(sc.OSes) {
			if compromisedOS[os] || len(m.byOS[os]) == 0 {
				continue
			}
			cover := 0
			for _, o := range sc.OSes {
				if o == os {
					cover++
				}
			}
			if cover > bestCover {
				bestCover = cover
				target = os
			}
		}
		if bestCover == 0 {
			return Result{TimeToCompromise: math.Inf(1), ExploitsUsed: campaigns}
		}
		now += rnd.expDraw(1)
		campaigns++
		vulns := m.byOS[target]
		v := vulns[int(rnd.next()%uint64(len(vulns)))]
		before := replicasDown()
		compromisedOS[target] = true
		for _, d := range v.distros {
			compromisedOS[d] = true
		}
		if after := replicasDown(); after > sc.F {
			return Result{TimeToCompromise: now, ExploitsUsed: campaigns, FatalExploit: after - before}
		}
	}
}

func distinctOSes(oses []osmap.Distro) []osmap.Distro {
	seen := make(map[osmap.Distro]bool, len(oses))
	var out []osmap.Distro
	for _, o := range oses {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// summary aggregates the oracle's runs at seeds 1..trials the way
// MonteCarlo documents it.
func (m *refModel) summary(sc Scenario, trials int) Summary {
	sum := Summary{Scenario: sc, Trials: trials}
	var times []float64
	shared := 0
	for t := 1; t <= trials; t++ {
		res := m.simulate(sc, uint64(t))
		if math.IsInf(res.TimeToCompromise, 1) {
			sum.Unbroken++
			continue
		}
		times = append(times, res.TimeToCompromise)
		if res.FatalExploit > 1 {
			shared++
		}
	}
	if len(times) > 0 {
		total := 0.0
		for _, x := range times {
			total += x
		}
		sum.MeanTTC = total / float64(len(times))
		sort.Float64s(times)
		sum.MedianTTC = times[len(times)/2]
		sum.SharedFatal = float64(shared) / float64(len(times))
	}
	return sum
}

// randomScenario draws F in [1, 24] (past /api/attack's 16, and past
// 64 replicas) and a 3F+1 multiset from a small random pool of the
// universe plus one distro outside it, so homogeneous, repeated and
// unattackable members all occur.
func randomScenario(r *rand.Rand, universe []osmap.Distro, outside osmap.Distro) Scenario {
	f := 1 + r.IntN(24)
	pool := []osmap.Distro{outside}
	for n := 1 + r.IntN(6); len(pool) <= n; {
		pool = append(pool, universe[r.IntN(len(universe))])
	}
	oses := make([]osmap.Distro, 3*f+1)
	for i := range oses {
		oses[i] = pool[r.IntN(len(pool))]
	}
	return Scenario{Name: "random", F: f, OSes: oses}
}

// TestSimulateMatchesOracle is the oracle property: on the calibrated
// and the 32-distro synthetic corpus, every random scenario and seed
// gives the oracle's time, campaign count and fatal exploit size, and
// every Monte Carlo batch, at workers 1 and 4, the oracle's summary.
func TestSimulateMatchesOracle(t *testing.T) {
	paper, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	synth, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{Entries: 20_000, Distros: 32, Seed: 42, Workers: 2})
	if err != nil {
		t.Fatalf("GenerateSynthetic: %v", err)
	}
	for _, tc := range []struct {
		name     string
		entries  []*cve.Entry
		registry *osmap.Registry
	}{
		{"calibrated", paper.Entries, nil},
		{"synthetic32", synth.Entries, synth.Registry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newRefModel(tc.entries, tc.registry)
			opts := []core.Option{core.WithParallelism(4)}
			if tc.registry != nil {
				opts = append(opts, core.WithRegistry(tc.registry))
			}
			study := core.NewStudy(tc.entries, opts...)
			m := NewModel(study, core.IsolatedThinServer)
			universe := study.Distros()
			r := rand.New(rand.NewPCG(7, uint64(len(tc.entries))))
			for i := 0; i < 200; i++ {
				sc := randomScenario(r, universe, osmap.SyntheticDistro(500))
				seed := r.Uint64()
				got, err := m.Simulate(sc, seed)
				if err != nil {
					t.Fatalf("Simulate(%v): %v", sc.OSes, err)
				}
				if want := ref.simulate(sc, seed); got != want {
					t.Fatalf("F=%d %v seed %d: got %+v, oracle %+v", sc.F, sc.OSes, seed, got, want)
				}
				if i%20 == 0 {
					study.SetParallelism(1 + 3*(i/20%2))
					got, err := m.MonteCarlo(sc, 40)
					if err != nil {
						t.Fatalf("MonteCarlo: %v", err)
					}
					if want := ref.summary(sc, 40); !reflect.DeepEqual(got, want) {
						t.Fatalf("F=%d %v: MonteCarlo %+v, oracle %+v", sc.F, sc.OSes, got, want)
					}
				}
			}
		})
	}
}
