// Package attack models the adversary the paper's introduction worries
// about: one who develops exploits for (possibly shared) OS
// vulnerabilities and uses them to compromise replicas of an
// intrusion-tolerant service.
//
// The model answers the paper's opening question — "what are the gains
// of applying OS diversity on a replicated intrusion-tolerant system?" —
// by simulation under the paper's own assumption (footnote 5): "the cost
// to compromise each OS is non-negligible and approximately the same".
// The adversary therefore runs sequential exploit campaigns, one per
// target OS, each taking Exp(1) time; a successful campaign
// exploits one concrete vulnerability of the target, and every OS
// sharing that vulnerability is compromised for free at the same
// instant. The system falls when more than F replicas are compromised.
//
// Under this model a homogeneous cluster always falls to the first
// campaign, a fully disjoint F=1 set needs two, and shared
// vulnerabilities are exactly what lets the adversary cross the
// threshold early — so the measured time-to-compromise quantifies the
// diversity gain as a function of the overlap structure the paper
// measures. The paper has no such experiment (it laments the missing
// exploit-rate data in §V); this module is the reproduction's extension,
// described in the README's "Attack simulation" section.
package attack

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"osdiversity/internal/core"
	"osdiversity/internal/osmap"
)

// meanEffort is the expected exploit-development effort per
// vulnerability in abstract time units: the paper's footnote 5 takes the
// cost to compromise each OS as approximately the same.
const meanEffort = 1.0

// Model is a per-request view of a study's attack population under one
// profile. Building one is cheap: the Study builds the population once
// (core.Study.Population) and every model over it shares it. Monte
// Carlo batches run on the Study's worker count.
type Model struct {
	study *core.Study
	pop   *core.Population
}

// NewModel views the study's vulnerability population under a profile
// (the Isolated Thin Server profile matches the paper's hardened-replica
// assumption).
func NewModel(study *core.Study, profile core.Profile) *Model {
	return &Model{study: study, pop: study.Population(profile)}
}

// runTrials executes body(t) for t in [0, trials) across the study's
// worker pool, sharding contiguous trial ranges. Every trial draws from
// its own seeded stream, so results are identical at any worker count.
func (m *Model) runTrials(trials int, body func(t int)) {
	workers := m.study.Parallelism()
	if workers <= 1 || trials < 2 {
		for t := 0; t < trials; t++ {
			body(t)
		}
		return
	}
	if workers > trials {
		workers = trials
	}
	chunk := (trials + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < trials; lo += chunk {
		hi := min(lo+chunk, trials)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for t := lo; t < hi; t++ {
				body(t)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// VulnCount returns the population size. Only attack's tests call it.
func (m *Model) VulnCount() int { return m.pop.Len() }

// Scenario is one replica configuration under attack.
type Scenario struct {
	Name string
	// F is the fault threshold: the system is correct while at most F
	// replicas are compromised.
	F int
	// OSes assigns operating systems to the 3F+1 replicas.
	OSes []osmap.Distro
}

// Validate checks the scenario shape.
func (s Scenario) Validate() error {
	if s.F < 1 {
		return errors.New("attack: F must be at least 1")
	}
	if len(s.OSes) != 3*s.F+1 {
		return fmt.Errorf("attack: need %d replicas for F=%d, got %d", 3*s.F+1, s.F, len(s.OSes))
	}
	return nil
}

// Result is one simulated attack run.
type Result struct {
	// TimeToCompromise is when the adversary first held F+1 replicas.
	// +Inf when no campaign sequence can get that far (some replica's
	// OS has no vulnerability in the population).
	TimeToCompromise float64
	// ExploitsUsed counts successful campaigns up to the compromise.
	ExploitsUsed int
	// FatalExploit reports how many replicas the threshold-crossing
	// campaign took at once (>1 means a shared vulnerability helped).
	FatalExploit int
}

// rng is a deterministic xorshift64* stream.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// expDraw returns an Exp(1/mean) variate.
func (r *rng) expDraw(mean float64) float64 {
	u := (float64(r.next()%1_000_000_000) + 1) / 1_000_000_001
	return -mean * math.Log(u)
}

// Simulate runs one attack with a deterministic seed.
//
// The adversary repeatedly picks the not-yet-compromised OS covering the
// most surviving replicas (ties by replica order), spends Exp(1) time on
// a campaign against it, exploits one of its vulnerabilities (chosen
// uniformly), and thereby also compromises every OS sharing that
// vulnerability. This is SimulateRotation's campaign loop over one step
// that never rotates. Only tests call it (TestSimulateMatchesOracle and
// attack's other tests); the server and CLI batch trials through
// MonteCarlo.
func (m *Model) Simulate(sc Scenario, seed uint64) (Result, error) {
	c, err := m.oneStep(sc)
	if err != nil {
		return Result{}, err
	}
	return c.run(seed).result(), nil
}

// oneStep resolves a static scenario as a one-step campaign over the
// whole population. The step's interval is the largest finite one
// rather than +Inf, whose product with the step index 0 would be NaN.
func (m *Model) oneStep(sc Scenario) (*campaign, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return m.campaign(sc.F, []RotationStep{{OSes: sc.OSes}}, math.MaxFloat64)
}

// result maps a one-step run onto the static attack's result: a run
// that outlasts its unbounded step was never compromised.
func (r RotationResult) result() Result {
	if r.Survived {
		return Result{TimeToCompromise: math.Inf(1), ExploitsUsed: r.Campaigns}
	}
	return Result{TimeToCompromise: r.When, ExploitsUsed: r.Campaigns, FatalExploit: r.FatalReplicas}
}

// Summary aggregates a Monte Carlo batch.
type Summary struct {
	Scenario Scenario
	Trials   int
	// MeanTTC and MedianTTC are over finite runs only.
	MeanTTC   float64
	MedianTTC float64
	// SharedFatal is the fraction of runs where the threshold-crossing
	// exploit took more than one replica at once.
	SharedFatal float64
	// Unbroken counts runs where the threshold was never crossed.
	Unbroken int
}

// MonteCarlo runs `trials` deterministic simulations (seeds 1..trials)
// on the study's worker pool. Each trial is an independent seeded
// stream and the aggregation walks the results in trial order, so the
// summary is identical at any worker count.
func (m *Model) MonteCarlo(sc Scenario, trials int) (Summary, error) {
	if trials < 1 {
		return Summary{}, errors.New("attack: at least one trial required")
	}
	c, err := m.oneStep(sc)
	if err != nil {
		return Summary{}, err
	}
	results := make([]Result, trials)
	m.runTrials(trials, func(t int) { results[t] = c.run(uint64(t + 1)).result() })
	times := make([]float64, 0, trials)
	shared := 0
	unbroken := 0
	for _, res := range results {
		if math.IsInf(res.TimeToCompromise, 1) {
			unbroken++
			continue
		}
		times = append(times, res.TimeToCompromise)
		if res.FatalExploit > 1 {
			shared++
		}
	}
	sum := Summary{Scenario: sc, Trials: trials, Unbroken: unbroken}
	if len(times) > 0 {
		total := 0.0
		for _, t := range times {
			total += t
		}
		sum.MeanTTC = total / float64(len(times))
		sort.Float64s(times)
		sum.MedianTTC = times[len(times)/2]
		sum.SharedFatal = float64(shared) / float64(len(times))
	}
	return sum, nil
}

// Gain compares two scenarios: how many times longer the adversary needs
// against `diverse` than against `baseline` (mean TTC ratio).
func (m *Model) Gain(baseline, diverse Scenario, trials int) (float64, error) {
	b, err := m.MonteCarlo(baseline, trials)
	if err != nil {
		return 0, err
	}
	d, err := m.MonteCarlo(diverse, trials)
	if err != nil {
		return 0, err
	}
	if b.MeanTTC == 0 {
		return 0, errors.New("attack: baseline never compromised")
	}
	if d.MeanTTC == 0 {
		return 0, fmt.Errorf("attack: diverse configuration %q never compromised", diverse.Name)
	}
	return d.MeanTTC / b.MeanTTC, nil
}
