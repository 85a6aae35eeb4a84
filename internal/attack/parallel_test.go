package attack

import (
	"math"
	"reflect"
	"testing"

	"osdiversity/internal/osmap"
)

// The Monte Carlo batches are embarrassingly parallel; these tests pin
// the determinism contract: identical summaries at any worker count of
// the study. (Each trial draws from its own seeded stream, so the
// shared study can switch worker counts without changing any result.)

func TestMonteCarloIdenticalAcrossWorkers(t *testing.T) {
	s := paperStudy(t)
	defer s.SetParallelism(1)
	m := paperModel(t)
	s.SetParallelism(1)
	serial, err := m.MonteCarlo(set1(), 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		s.SetParallelism(workers)
		got, err := m.MonteCarlo(set1(), 500)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d summary differs: %+v vs %+v", workers, got, serial)
		}
	}
}

func TestParallelMonteCarloValidation(t *testing.T) {
	s := paperStudy(t)
	defer s.SetParallelism(1)
	s.SetParallelism(4)
	m := paperModel(t)
	if _, err := m.MonteCarlo(Scenario{F: 0}, 10); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if _, err := m.RotationSurvival(1, disjointSteps(), 0, 10, 1); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := m.RotationSurvival(1, disjointSteps(), 1, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
	if sum, err := m.MonteCarlo(set1(), 1); err != nil || sum.Trials != 1 {
		t.Fatalf("single-trial batch: %+v, %v", sum, err)
	}
	g, err := m.Gain(homogeneous(osmap.Debian), set1(), 50)
	if err != nil || math.IsNaN(g) || g <= 0 {
		t.Fatalf("parallel Gain = %v, %v", g, err)
	}
}
