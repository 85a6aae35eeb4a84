// Package scenario is the dynamic-diversity engine: it searches OS
// assignments and rotation schedules for an intrusion-tolerant replica
// group, scoring them under the Monte Carlo attack model and validating
// the winner on the BFT substrate.
//
// The paper answers a static question — which OS sets share few
// vulnerabilities. Related work (Chen/Cam/Xu on dynamic network
// diversity; Stoller & Liu on diversity rotation) asks the dynamic one:
// which *sequence* of configurations survives longest when the replicas
// rotate on a cadence. A Spec describes the search space (fault
// threshold f, candidate OS universe, temporal windows, rotation
// interval); Search enumerates size-(3f+1) assignments per window using
// core's cached per-window overlap matrices (one SetCostsByWindow batch
// per candidate set, never the raw vulnerability list), keeps the
// cheapest Beam assignments per window, crosses them into schedules,
// scores every schedule's survival with attack.RotationSurvival over
// deterministic per-candidate seed streams, and replays the winning
// schedule's compromises on a real bft.Cluster. Trials run on the
// study's worker pool, so results are byte-identical at any
// parallelism.
package scenario

import (
	"errors"
	"fmt"
	"sort"

	"osdiversity/internal/attack"
	"osdiversity/internal/core"
	"osdiversity/internal/osmap"
)

// Spec describes one recommendation search.
type Spec struct {
	// F is the fault threshold; each window deploys 3F+1 replicas.
	F int
	// Universe lists the candidate distributions assignments draw from.
	Universe []osmap.Distro
	// Windows are the temporal windows of the rotation schedule, in
	// deployment order; window i arms the adversary while step i runs.
	Windows []core.SelectionWindow
	// Interval is the rotation cadence in attack-model time units.
	Interval float64
	// Trials is the Monte Carlo batch size per candidate schedule.
	Trials int
	// Seed roots every candidate's deterministic stream family.
	Seed uint64
	// Beam keeps the cheapest Beam assignments per window before
	// crossing windows into schedules.
	Beam int
}

// searchSpaceCap bounds beam^windows so a spec cannot explode the
// Monte Carlo phase.
const searchSpaceCap = 1024

// subsetCap bounds the assignment enumeration per window.
const subsetCap = 100000

// Validate checks the spec shape.
func (s Spec) Validate() error {
	if s.F < 1 {
		return errors.New("scenario: F must be at least 1")
	}
	n := 3*s.F + 1
	if len(s.Universe) < n {
		return fmt.Errorf("scenario: universe of %d cannot fill %d replicas for F=%d", len(s.Universe), n, s.F)
	}
	if len(s.Windows) == 0 {
		return errors.New("scenario: at least one temporal window required")
	}
	if s.Interval <= 0 {
		return errors.New("scenario: interval must be positive")
	}
	if s.Trials < 1 {
		return errors.New("scenario: at least one trial required")
	}
	if s.Beam < 1 {
		return errors.New("scenario: beam must be at least 1")
	}
	if c := binomial(len(s.Universe), n); c == 0 || c > subsetCap {
		return fmt.Errorf("scenario: %d candidate assignments per window exceeds the cap of %d", c, subsetCap)
	}
	total := 1
	for range s.Windows {
		if total *= s.Beam; total > searchSpaceCap {
			return fmt.Errorf("scenario: beam %d over %d windows exceeds the schedule cap of %d", s.Beam, len(s.Windows), searchSpaceCap)
		}
	}
	return nil
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c > subsetCap {
			return subsetCap + 1
		}
	}
	return c
}

// WindowAssignment is one window of a candidate schedule.
type WindowAssignment struct {
	Window core.SelectionWindow
	// OSes assigns distributions to the 3F+1 replicas for the window.
	OSes []osmap.Distro
	// Cost is the window-scoped shared-vulnerability cost of the set.
	Cost int
}

// Candidate is one scored rotation schedule.
type Candidate struct {
	Windows []WindowAssignment
	// Cost sums the per-window costs (the static diversity score).
	Cost int
	// Survival is the fraction of Monte Carlo trials the schedule
	// survived.
	Survival float64
}

// Result is a completed search.
type Result struct {
	Spec Spec
	// Evaluated counts the schedules scored by Monte Carlo.
	Evaluated int
	// Candidates holds every evaluated schedule ranked by survival
	// descending, cost ascending, enumeration order.
	Candidates []Candidate
	// Violations lists BFT replay violations for the winning schedule
	// (empty when the survival claim validated).
	Violations []string
	// Validated reports that the winner's replay kept the safety
	// report clean in every step.
	Validated bool
}

// Engine runs recommendation searches over one corpus.
type Engine struct {
	study *core.Study
	model *attack.Model
}

// NewEngine builds an engine over the study's attack population under
// the profile (IsolatedThinServer matches the paper's hardened
// replicas). Monte Carlo trials run on the study's worker count; every
// trial is an independent seeded stream, so Search output is identical
// at any worker count.
func NewEngine(study *core.Study, profile core.Profile) *Engine {
	return &Engine{study: study, model: attack.NewModel(study, profile)}
}

// scoredSet is one enumerated assignment with its per-window costs.
type scoredSet struct {
	members []osmap.Distro
	costs   []int // indexed by window
	order   int   // enumeration index, the deterministic tiebreaker
}

// Search runs the full beam + Monte Carlo + replay pipeline.
func (e *Engine) Search(spec Spec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	n := 3*spec.F + 1

	// Beam phase: enumerate size-n subsets of the universe once, batch
	// their per-window costs through core's cached matrices, and keep
	// the cheapest Beam assignments per window.
	var sets []scoredSet
	forEachSubset(len(spec.Universe), n, func(idx []int) {
		members := make([]osmap.Distro, n)
		for i, j := range idx {
			members[i] = spec.Universe[j]
		}
		sets = append(sets, scoredSet{
			members: members,
			costs:   e.study.SetCostsByWindow(members, spec.Windows),
			order:   len(sets),
		})
	})
	beams := make([][]scoredSet, len(spec.Windows))
	for w := range spec.Windows {
		ranked := make([]scoredSet, len(sets))
		copy(ranked, sets)
		sort.SliceStable(ranked, func(i, j int) bool {
			if ranked[i].costs[w] != ranked[j].costs[w] {
				return ranked[i].costs[w] < ranked[j].costs[w]
			}
			return ranked[i].order < ranked[j].order
		})
		if len(ranked) > spec.Beam {
			ranked = ranked[:spec.Beam]
		}
		beams[w] = ranked
	}

	// Monte Carlo phase: cross the beams into schedules (lexicographic
	// over per-window beam indices) and score each one's survival on a
	// deterministic per-candidate stream. Trials shard on the worker
	// pool; candidates iterate in order, so ranking is reproducible.
	total := 1
	for _, b := range beams {
		total *= len(b)
	}
	candidates := make([]Candidate, 0, total)
	pick := make([]int, len(beams))
	for ci := 0; ci < total; ci++ {
		rem := ci
		for w := len(beams) - 1; w >= 0; w-- {
			pick[w] = rem % len(beams[w])
			rem /= len(beams[w])
		}
		cand := Candidate{Windows: make([]WindowAssignment, len(beams))}
		steps := make([]attack.RotationStep, len(beams))
		for w, b := range beams {
			chosen := b[pick[w]]
			cand.Windows[w] = WindowAssignment{
				Window: spec.Windows[w],
				OSes:   chosen.members,
				Cost:   chosen.costs[w],
			}
			cand.Cost += chosen.costs[w]
			steps[w] = attack.RotationStep{OSes: chosen.members, Window: spec.Windows[w]}
		}
		seedBase := spec.Seed*0x100000001B3 + uint64(ci)*0x9E3779B97F4A7C15
		survival, err := e.model.RotationSurvival(spec.F, steps, spec.Interval, spec.Trials, seedBase)
		if err != nil {
			return Result{}, err
		}
		cand.Survival = survival
		candidates = append(candidates, cand)
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		if candidates[i].Survival != candidates[j].Survival {
			return candidates[i].Survival > candidates[j].Survival
		}
		return candidates[i].Cost < candidates[j].Cost
	})

	res := Result{Spec: spec, Evaluated: total, Candidates: candidates}

	// Replay phase: validate the winner's survival claim on the BFT
	// substrate.
	winner := candidates[0]
	steps := make([]attack.RotationStep, len(winner.Windows))
	for w, wa := range winner.Windows {
		steps[w] = attack.RotationStep{OSes: wa.OSes, Window: wa.Window}
	}
	violations, err := e.model.ReplayRotationOnCluster(spec.F, steps, spec.Seed)
	if err != nil {
		return Result{}, err
	}
	res.Violations = violations
	res.Validated = len(violations) == 0
	return res, nil
}

// forEachSubset visits every size-k index subset of [0, n) in
// lexicographic order.
func forEachSubset(n, k int, visit func(idx []int)) {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		visit(idx)
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
