package scenario

import (
	"reflect"
	"testing"

	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/osmap"
)

var studyCache *core.Study

func paperStudy(t testing.TB) *core.Study {
	t.Helper()
	if studyCache == nil {
		c, err := corpus.Generate()
		if err != nil {
			t.Fatalf("corpus.Generate: %v", err)
		}
		studyCache = core.NewStudy(c.Entries)
	}
	return studyCache
}

func testSpec() Spec {
	return Spec{
		F:        1,
		Universe: osmap.HistoryEligible(),
		Windows: []core.SelectionWindow{
			{FromYear: 1994, ToYear: 2002},
			{FromYear: 2003, ToYear: 2010},
		},
		Interval: 2,
		Trials:   100,
		Seed:     1,
		Beam:     3,
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]func(*Spec){
		"F=0":            func(s *Spec) { s.F = 0 },
		"small universe": func(s *Spec) { s.Universe = s.Universe[:3] },
		"no windows":     func(s *Spec) { s.Windows = nil },
		"zero interval":  func(s *Spec) { s.Interval = 0 },
		"zero trials":    func(s *Spec) { s.Trials = 0 },
		"zero beam":      func(s *Spec) { s.Beam = 0 },
		"beam blowup": func(s *Spec) {
			s.Beam = 16
			s.Windows = make([]core.SelectionWindow, 8)
		},
	}
	for name, mutate := range cases {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestSearchDeterministicAcrossWorkers pins the serial == parallel
// identity of the whole pipeline: beams, Monte Carlo ranking and the
// replay verdict are byte-for-byte equal at any worker count.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	study := paperStudy(t)
	defer study.SetParallelism(1)
	study.SetParallelism(1)
	want, err := NewEngine(study, core.IsolatedThinServer).Search(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	study.SetParallelism(4)
	got, err := NewEngine(study, core.IsolatedThinServer).Search(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("search diverged across worker counts:\nserial:   %+v\nparallel: %+v", want, got)
	}
}

// TestSearchShape checks the structural claims: every candidate has
// one assignment per window with 3F+1 replicas, candidates rank by
// survival descending (ties by cost ascending), and the evaluated
// count matches the beam cross product.
func TestSearchShape(t *testing.T) {
	eng := NewEngine(paperStudy(t), core.IsolatedThinServer)
	spec := testSpec()
	res, err := eng.Search(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != spec.Beam*spec.Beam {
		t.Errorf("evaluated = %d, want %d", res.Evaluated, spec.Beam*spec.Beam)
	}
	if len(res.Candidates) != res.Evaluated {
		t.Fatalf("candidates = %d, want %d", len(res.Candidates), res.Evaluated)
	}
	for i, c := range res.Candidates {
		if len(c.Windows) != len(spec.Windows) {
			t.Fatalf("candidate %d has %d windows", i, len(c.Windows))
		}
		sum := 0
		for w, wa := range c.Windows {
			if len(wa.OSes) != 3*spec.F+1 {
				t.Fatalf("candidate %d window %d has %d replicas", i, w, len(wa.OSes))
			}
			if wa.Window != spec.Windows[w] {
				t.Fatalf("candidate %d window %d = %+v", i, w, wa.Window)
			}
			sum += wa.Cost
		}
		if sum != c.Cost {
			t.Errorf("candidate %d cost %d != window sum %d", i, c.Cost, sum)
		}
		if i > 0 {
			prev := res.Candidates[i-1]
			if c.Survival > prev.Survival {
				t.Errorf("candidate %d survival %v above predecessor %v", i, c.Survival, prev.Survival)
			}
			if c.Survival == prev.Survival && c.Cost < prev.Cost {
				t.Errorf("candidate %d breaks the cost tiebreak", i)
			}
		}
	}
}

// TestSearchValidatesWinner pins the acceptance claim: the winning
// schedule's survival claim replays cleanly on a bft.Cluster.
func TestSearchValidatesWinner(t *testing.T) {
	eng := NewEngine(paperStudy(t), core.IsolatedThinServer)
	res, err := eng.Search(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validated {
		t.Fatalf("winner failed BFT replay validation: %v", res.Violations)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations on a validated result: %v", res.Violations)
	}
}

// TestWindowCostsMatchCore pins that the beam phase scores assignments
// with core's cached window matrices: the reported per-window cost of
// every candidate equals a direct SetCost query.
func TestWindowCostsMatchCore(t *testing.T) {
	study := paperStudy(t)
	eng := NewEngine(study, core.IsolatedThinServer)
	res, err := eng.Search(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Candidates {
		for w, wa := range c.Windows {
			if got, want := wa.Cost, study.SetCost(wa.OSes, wa.Window); got != want {
				t.Fatalf("candidate %d window %d cost = %d, core says %d", i, w, got, want)
			}
		}
	}
}

func TestForEachSubset(t *testing.T) {
	var got [][]int
	forEachSubset(4, 2, func(idx []int) {
		got = append(got, append([]int(nil), idx...))
	})
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subsets = %v, want %v", got, want)
	}
}
