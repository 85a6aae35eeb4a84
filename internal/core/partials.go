package core

import (
	"sort"

	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// Mergeable partial aggregates. A Study built over a year-range slice of
// the corpus (corpus.ShardByYear) answers every paper table for its
// slice; because each vulnerability belongs to exactly one publication
// year, the slices partition the record set and raw counts add across
// shards, as they add across the Study's own year segments. The helpers here are the other half of that contract: they
// finalize merged raw counts into the derived figures (percentage
// shares, filter reduction, most-shared ordering, replica-set ranking)
// with exactly the arithmetic the single-process Study uses, so a
// scatter-gather front-end reproduces its bytes. The in-process engine
// delegates to the same helpers at any worker count, keeping the two
// paths one implementation.

// ClassShares finalizes Table II's percentage shares from the distinct
// per-class counts and the total valid count. The in-process engine and
// the gateway merge path share this exact float expression.
func ClassShares(counts [4]int, n int) [4]float64 {
	var shares [4]float64
	if n > 0 {
		for i := range counts {
			shares[i] = 100 * float64(counts[i]) / float64(n)
		}
	}
	return shares
}

// ClassDistinct returns the distinct valid vulnerability counts per
// component class alongside the valid total — the raw, additive half of
// Table II. Summing both across shards and applying ClassShares yields
// the full-corpus shares.
func (s *Study) ClassDistinct() (counts [4]int, n int) {
	return [4]int(s.classSums()[4*s.nd:]), s.nValid
}

// FilterReductionFrom computes §IV-E(1)'s average relative overlap
// reduction from parallel slices of per-pair counts under the two
// profiles, in pair order, skipping pairs with a zero baseline.
// Study.FilterReduction delegates here; a gateway applies it to
// shard-summed pair counts and reproduces the same float.
func FilterReductionFrom(from, to []int) float64 {
	var sum float64
	n := 0
	for i := range from {
		base := from[i]
		if base == 0 {
			continue
		}
		sum += float64(base-to[i]) / float64(base)
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// SharedIDCount is one most-shared listing element in mergeable form:
// the identifier and its OS-product count.
type SharedIDCount struct {
	ID       cve.ID
	Products int
}

// MostSharedCounts returns the first n elements of the most-shared
// order (product count descending, ties by CVE ID ascending) as raw
// (ID, count) pairs. Any entry of the global top n lives in its own
// shard's top n, so merging per-shard prefixes with MergeMostShared
// reproduces the full-corpus listing.
func (s *Study) MostSharedCounts(n int) []SharedIDCount {
	order := s.mostSharedPrefix(n)
	out := make([]SharedIDCount, len(order))
	for i, pos := range order {
		r := s.recAt(pos)
		out[i] = SharedIDCount{ID: r.id, Products: r.products}
	}
	return out
}

// MergeMostShared merges per-shard most-shared prefixes into the global
// top n under the Study's order: product count descending, ties by CVE
// ID ascending. IDs are unique across shards (each vulnerability lives
// in exactly one year slice), so the order is total.
func MergeMostShared(lists [][]SharedIDCount, n int) []SharedIDCount {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	all := make([]SharedIDCount, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Products != all[j].Products {
			return all[i].Products > all[j].Products
		}
		return all[i].ID.Less(all[j].ID)
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n:n]
}

// MergeYearCounts adds per-year counts across shards (temporal series,
// k-wise clusters — any map[int]int aggregate).
func MergeYearCounts(maps []map[int]int) map[int]int {
	out := make(map[int]int)
	for _, m := range maps {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// RankSetsFromCosts enumerates all size-k subsets of the candidates in
// presentation order and ranks them by cost ascending (stable, so ties
// keep enumeration order) — Study.RankReplicaSets' algorithm lifted out
// of the Study so a gateway can rank from shard-merged costs. pairCost
// prices one pair; singleCost prices the homogeneous one-member set.
func RankSetsFromCosts(candidates []osmap.Distro, k int, strategy Strategy, pairCost func(osmap.Pair) int, singleCost func(osmap.Distro) int) []RankedSet {
	var out []RankedSet
	subset := make([]osmap.Distro, 0, k)
	var recurse func(start int)
	recurse = func(start int) {
		if len(subset) == k {
			if strategy == OnePerFamily && !onePerFamily(subset) {
				return
			}
			members := append([]osmap.Distro(nil), subset...)
			cost := 0
			if len(members) == 1 {
				cost = singleCost(members[0])
			} else {
				for _, p := range osmap.PairsOf(members) {
					cost += pairCost(p)
				}
			}
			out = append(out, RankedSet{Members: members, Cost: cost})
			return
		}
		for i := start; i < len(candidates); i++ {
			subset = append(subset, candidates[i])
			recurse(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	recurse(0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}
