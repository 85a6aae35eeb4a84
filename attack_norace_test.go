//go:build !race

package osdiversity

import "testing"

// TestAttackRequestAllocs100k bounds a warm attack request on the 100k
// synthetic epoch (Set1, F=1, 100 trials) to 2,000 allocations: the
// request reads the epoch's population and never copies it. Race
// builds skip it: the detector's instrumentation allocates on its own.
func TestAttackRequestAllocs100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k corpus allocation check skipped in -short mode")
	}
	a := attackBench100k(t)
	attack := func() {
		if _, err := a.SimulateAttack("set1", attackBenchSet, 1, 100); err != nil {
			t.Fatalf("SimulateAttack: %v", err)
		}
	}
	attack()
	if allocs := testing.AllocsPerRun(5, attack); allocs > 2000 {
		t.Fatalf("warm attack request makes %.0f allocations, budget 2,000", allocs)
	} else {
		t.Logf("warm attack request: %.0f allocations", allocs)
	}
}
