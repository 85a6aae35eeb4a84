package core

import (
	"fmt"

	"osdiversity/internal/osmap"
)

// Strategy selects how replica sets are ranked (§IV-C).
type Strategy int

// Selection strategies.
const (
	// MinPairSum ranks sets by the sum of pairwise shared
	// vulnerabilities — the paper's diversity cost.
	MinPairSum Strategy = iota + 1
	// OnePerFamily is MinPairSum restricted to sets drawing at most one
	// OS per family. Under this constraint the paper's printed top-3
	// (Set1, Set2, Set3) emerges exactly.
	OnePerFamily
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case MinPairSum:
		return "min-pair-sum"
	case OnePerFamily:
		return "one-per-family"
	default:
		return "unknown-strategy"
	}
}

// RankedSet is one replica configuration with its diversity cost.
type RankedSet struct {
	Members []osmap.Distro
	// Cost is the pairwise-shared-vulnerability sum over the selection
	// window (the history period when selecting, the observed period
	// when evaluating).
	Cost int
}

// String renders the set as the paper writes it.
func (r RankedSet) String() string {
	out := "{"
	for i, d := range r.Members {
		if i > 0 {
			out += ", "
		}
		out += d.String()
	}
	return fmt.Sprintf("%s} cost=%d", out, r.Cost)
}

// SelectionWindow bounds the years whose vulnerabilities contribute to
// the selection cost.
type SelectionWindow struct {
	FromYear int // inclusive; 0 means no lower bound
	ToYear   int // inclusive; 0 means no upper bound
}

// Contains reports whether a year falls in the window.
func (w SelectionWindow) Contains(year int) bool {
	if w.FromYear != 0 && year < w.FromYear {
		return false
	}
	if w.ToYear != 0 && year > w.ToYear {
		return false
	}
	return true
}

// windowPairCounts returns every pair's Isolated-Thin-Server shared
// count inside the window, indexed by position in osmap.AllPairs().
// RankReplicaSets revisits the same pairs across many subsets, so the
// memoized matrix turns subset enumeration into table lookups.
func (s *Study) windowPairCounts(w SelectionWindow) []int {
	return s.cached(ckey{q: qWindowPairs, a: w.FromYear, b: w.ToYear}, func() any { return s.windowPairsBitset(w) }).([]int)
}

// windowTotals returns every distro's Isolated-Thin-Server valid count
// inside the window, indexed by position in osmap.Distros().
func (s *Study) windowTotals(w SelectionWindow) []int {
	return s.cached(ckey{q: qWindowTotals, a: w.FromYear, b: w.ToYear}, func() any { return s.windowTotalsBitset(w) }).([]int)
}

// PairSharedInWindow counts Isolated-Thin-Server shared vulnerabilities
// of a pair published inside the window; 0 for a pair outside the
// universe.
func (s *Study) PairSharedInWindow(p osmap.Pair, w SelectionWindow) int {
	if i, ok := s.pairIdx[p]; ok {
		return s.windowPairCounts(w)[i]
	}
	return 0
}

// SetCost sums the pairwise shared counts over all pairs of the set —
// the diversity cost the paper minimizes. A single-member set (the
// homogeneous baseline) costs its member's total vulnerabilities in the
// window, since every vulnerability hits all identical replicas.
func (s *Study) SetCost(members []osmap.Distro, w SelectionWindow) int {
	if len(members) == 1 {
		if i, ok := s.index[members[0]]; ok {
			return s.windowTotals(w)[i]
		}
		return 0
	}
	cost := 0
	for _, p := range osmap.PairsOf(members) {
		cost += s.PairSharedInWindow(p, w)
	}
	return cost
}

// SetCostsByWindow evaluates one replica set across many temporal
// windows in a single call — the batch overlap query the scenario
// engine runs per candidate assignment. Each window's cost comes from
// the same cached year-segmented matrices SetCost uses, so the whole
// batch is O(windows × pairs) lookups after the first touch of each
// window.
func (s *Study) SetCostsByWindow(members []osmap.Distro, ws []SelectionWindow) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = s.SetCost(members, w)
	}
	return out
}

// RankReplicaSets enumerates all size-k subsets of the candidates and
// ranks them by window cost ascending (ties broken by presentation
// order). OnePerFamily drops sets with two members from one family.
func (s *Study) RankReplicaSets(candidates []osmap.Distro, k int, strategy Strategy, w SelectionWindow) []RankedSet {
	return RankSetsFromCosts(candidates, k, strategy,
		func(p osmap.Pair) int { return s.PairSharedInWindow(p, w) },
		func(d osmap.Distro) int { return s.SetCost([]osmap.Distro{d}, w) })
}

func onePerFamily(members []osmap.Distro) bool {
	seen := make(map[osmap.Family]bool, 4)
	for _, d := range members {
		f := d.Family()
		if seen[f] {
			return false
		}
		seen[f] = true
	}
	return true
}

// EvaluateConfiguration reproduces one Figure 3 bar pair: the cost of a
// configuration over the history window and over the observed window.
func (s *Study) EvaluateConfiguration(members []osmap.Distro, splitYear int) (history, observed int) {
	history = s.SetCost(members, SelectionWindow{ToYear: splitYear})
	observed = s.SetCost(members, SelectionWindow{FromYear: splitYear + 1})
	return history, observed
}
