package attack

import (
	"errors"
	"fmt"
	"slices"

	"osdiversity/internal/bft"
	"osdiversity/internal/core"
	"osdiversity/internal/osmap"
)

// RotationStep is one window of a dynamic-diversity rotation schedule:
// the OS assignment deployed for the step and the temporal window whose
// disclosures arm the adversary while the step is live.
type RotationStep struct {
	// OSes assigns operating systems to the 3F+1 replicas for the step.
	OSes []osmap.Distro
	// Window restricts the adversary's vulnerability population to
	// disclosures inside the window while the step is deployed. The
	// zero window means the whole population.
	Window core.SelectionWindow
}

// validateRotation checks a schedule's shape.
func validateRotation(f int, steps []RotationStep, interval float64) error {
	if f < 1 {
		return errors.New("attack: F must be at least 1")
	}
	n := 3*f + 1
	if len(steps) == 0 {
		return errors.New("attack: rotation needs at least one step")
	}
	for i, st := range steps {
		if len(st.OSes) != n {
			return fmt.Errorf("attack: step %d needs %d replicas for F=%d, got %d", i, n, f, len(st.OSes))
		}
	}
	if interval <= 0 {
		return errors.New("attack: interval must be positive")
	}
	return nil
}

// RotationResult is one simulated run over a rotation schedule.
type RotationResult struct {
	// Survived reports that the adversary never held more than F
	// replicas simultaneously within any step.
	Survived bool
	// FailedStep is the index of the step where the threshold was
	// crossed (-1 when the run survived).
	FailedStep int
	// When is the failure time (the schedule horizon when survived).
	When float64
	// Campaigns counts completed exploit campaigns.
	Campaigns int
	// FatalReplicas counts the replicas the threshold-crossing event
	// took at once: the fatal campaign's, or the boundary
	// re-compromise's (0 when the run survived).
	FatalReplicas int
}

// SimulateRotation runs one attack against a rotation schedule with a
// deterministic seed. Each step deploys its assignment for `interval`
// time units; the boundary rejuvenates every replica from a clean
// image. Rotation is redeployment, not patching: the adversary's
// arsenal of working exploits persists, so an OS exploited in an
// earlier step is re-compromised the instant a later step redeploys it
// — schedules that avoid OS reuse are exactly the ones that benefit.
// Within a step the campaign loop is Simulate's, drawing targets from
// the step's window-scoped population; a campaign still running at the
// boundary is abandoned with the outgoing image. Only attack's rotation
// tests call it; the server and CLI batch trials through
// RotationSurvival.
func (m *Model) SimulateRotation(f int, steps []RotationStep, interval float64, seed uint64) (RotationResult, error) {
	c, err := m.campaign(f, steps, interval)
	if err != nil {
		return RotationResult{}, err
	}
	return c.run(seed), nil
}

// campaign is a schedule resolved against the population once per
// batch, so trials only read it.
type campaign struct {
	pop      *core.Population
	f        int
	interval float64
	steps    [][]target
	widest   int // the most targets in one step
}

// target is one distinct OS of a step, in first-deployment order. An
// exploit compromises an OS on every replica running it at once.
type target struct {
	os    osmap.Distro
	bit   int     // the OS's bit in population masks; -1 outside the universe
	cover int     // the replicas running it
	vulns []int32 // its vulnerabilities inside the step's window
}

// campaign validates a schedule and resolves each step's targets and
// window-scoped vulnerability lists.
func (m *Model) campaign(f int, steps []RotationStep, interval float64) (*campaign, error) {
	if err := validateRotation(f, steps, interval); err != nil {
		return nil, err
	}
	c := &campaign{pop: m.pop, f: f, interval: interval, steps: make([][]target, len(steps))}
	for k, st := range steps {
		lists := m.pop.Window(st.Window)
		var ts []target
		for _, os := range st.OSes {
			j := slices.IndexFunc(ts, func(t target) bool { return t.os == os })
			if j < 0 {
				t := target{os: os, bit: -1}
				if b, ok := m.pop.Bit(os); ok {
					t.bit, t.vulns = b, lists[b]
				}
				j = len(ts)
				ts = append(ts, t)
			}
			ts[j].cover++
		}
		c.steps[k] = ts
		c.widest = max(c.widest, len(ts))
	}
	return c, nil
}

// run plays one seeded trial of the campaign.
func (c *campaign) run(seed uint64) RotationResult {
	rnd := rng{state: seed*0x9E3779B97F4A7C15 + 1}
	// arsenal holds the distros the adversary has a working exploit
	// for; only a later step can redeploy one.
	var arsenal osmap.Mask
	hits := make([]bool, c.widest)
	res := RotationResult{FailedStep: -1}
	for k, ts := range c.steps {
		start := float64(k) * c.interval
		end := start + c.interval

		// hit flags the step's compromised targets and down counts
		// their replicas. Redeployed images the adversary already holds
		// exploits for fall at the boundary itself.
		hit, down := hits[:len(ts)], 0
		for i, t := range ts {
			hit[i] = t.bit >= 0 && arsenal.Has(t.bit)
			if hit[i] {
				down += t.cover
			}
		}
		if down > c.f {
			res.FailedStep, res.When, res.FatalReplicas = k, start, down
			return res
		}

		now := start
		for {
			best := -1
			for i, t := range ts {
				if !hit[i] && len(t.vulns) > 0 && (best < 0 || t.cover > ts[best].cover) {
					best = i
				}
			}
			if best < 0 {
				break // nothing attackable before the next rotation
			}
			done := now + rnd.expDraw(meanEffort)
			if done >= end {
				break // the boundary rejuvenates before the campaign lands
			}
			now = done
			res.Campaigns++
			vulns := ts[best].vulns
			v := c.pop.Mask(int(vulns[rnd.next()%uint64(len(vulns))]))
			if len(c.steps) > 1 {
				if arsenal == nil {
					arsenal = make(osmap.Mask, len(v))
				}
				for w := range v {
					arsenal[w] |= v[w]
				}
			}
			before := down
			for i, t := range ts {
				if !hit[i] && t.bit >= 0 && v.Has(t.bit) {
					hit[i] = true
					down += t.cover
				}
			}
			if down > c.f {
				res.FailedStep, res.When, res.FatalReplicas = k, now, down-before
				return res
			}
		}
	}
	res.Survived = true
	res.When = float64(len(c.steps)) * c.interval
	return res
}

// RotationSurvival runs `trials` rotation simulations on the study's
// worker pool and returns the surviving fraction. Trial t draws from
// stream seedBase+t+1 regardless of worker count or call order, so
// callers can assign independent deterministic streams per schedule
// candidate.
func (m *Model) RotationSurvival(f int, steps []RotationStep, interval float64, trials int, seedBase uint64) (float64, error) {
	if trials < 1 {
		return 0, errors.New("attack: at least one trial required")
	}
	c, err := m.campaign(f, steps, interval)
	if err != nil {
		return 0, err
	}
	survived := make([]bool, trials)
	m.runTrials(trials, func(t int) { survived[t] = c.run(seedBase + uint64(t) + 1).Survived })
	n := 0
	for _, ok := range survived {
		if ok {
			n++
		}
	}
	return float64(n) / float64(trials), nil
}

// ReplayRotationOnCluster validates a schedule's survival claim on the
// BFT substrate: for every step the cluster rotates to the step's
// assignment (rejuvenating each replica), up to F replicas fall by OS
// exactly as window-scoped exploits take them, a request is submitted,
// and the safety report must stay clean. The returned violations are
// empty iff every step preserved agreement and validity with the
// threshold respected.
func (m *Model) ReplayRotationOnCluster(f int, steps []RotationStep, seed uint64) ([]string, error) {
	c, err := m.campaign(f, steps, 1)
	if err != nil {
		return nil, err
	}
	cluster, err := bft.NewCluster(bft.Config{F: f, OSes: steps[0].OSes, Seed: seed})
	if err != nil {
		return nil, err
	}
	var violations []string
	for k, ts := range c.steps {
		if k > 0 {
			if err := cluster.Rotate(steps[k].OSes); err != nil {
				return nil, err
			}
		}
		// Compromise up to F replicas, restricted to OSes the step's
		// window actually gives the adversary an exploit for.
		budget := f
		for _, t := range ts {
			if budget == 0 {
				break
			}
			if len(t.vulns) > 0 && t.cover <= budget {
				cluster.CompromiseByOS(t.os, bft.ForgeReplies)
				budget -= t.cover
			}
		}
		cluster.Submit(fmt.Sprintf("step-%d", k))
		cluster.Run(float64(k+1) * 20000)
		for _, v := range cluster.SafetyReport() {
			violations = append(violations, fmt.Sprintf("step %d: %s", k, v))
		}
	}
	return violations, nil
}
