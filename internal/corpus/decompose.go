// Package corpus generates the calibrated synthetic NVD population.
//
// The paper's raw data (a Sept-2010 NVD snapshot) is not available
// offline, so this package constructs a vulnerability population whose
// derived statistics reproduce the paper's published tables: per-OS
// totals (Table I), component classes (Table II), pairwise overlaps under
// three server profiles (Table III), the part breakdown of Isolated Thin
// Server overlaps (Table IV), the history/observed temporal split
// (Table V), per-release overlaps (Table VI) and the named multi-OS CVEs
// of §IV-B. Generation is fully deterministic.
//
// The construction decomposes the pairwise tables into three disjoint
// "tiers" of vulnerabilities per pair —
//
//	application tier:       All − NoApp
//	local non-app tier:     NoApp − Remote
//	remote non-app tier:    Remote (further split by part and period)
//
// — and then expresses each tier as a multiset of OS *sets*: mostly
// pairs, with triangles merged into triples wherever the per-OS totals
// force it (for example, at least 37 application vulnerabilities must hit
// all three Windows versions at once, or Windows 2008's application
// column would overflow).
package corpus

import (
	"fmt"
	"sort"

	"osdiversity/internal/osmap"
)

// osSet is a normalized (ascending) set of distributions.
type osSet []osmap.Distro

func newOSSet(members ...osmap.Distro) osSet {
	s := append(osSet(nil), members...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func (s osSet) contains(d osmap.Distro) bool {
	for _, m := range s {
		if m == d {
			return true
		}
	}
	return false
}

func (s osSet) pairs() []osmap.Pair { return osmap.PairsOf(s) }

func (s osSet) key() string {
	out := ""
	for _, d := range s {
		out += d.String() + "|"
	}
	return out
}

// groupedSet is one decomposition element: an OS set with a multiplicity.
type groupedSet struct {
	set   osSet
	count int
}

// pairMatrix is a symmetric pair→count map with non-negative entries.
type pairMatrix map[osmap.Pair]int

func (m pairMatrix) clone() pairMatrix {
	out := make(pairMatrix, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// pairsOnly converts a matrix to the trivial pairs-only decomposition.
func pairsOnly(m pairMatrix) []groupedSet {
	keys := make([]osmap.Pair, 0, len(m))
	for p := range m {
		if m[p] > 0 {
			keys = append(keys, p)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	out := make([]groupedSet, 0, len(keys))
	for _, p := range keys {
		out = append(out, groupedSet{set: newOSSet(p.A, p.B), count: m[p]})
	}
	return out
}

// bucket identifies one sub-matrix of a tier. Remote-tier buckets carry
// a part and a period; other tiers use a single zero bucket.
type bucket struct {
	part   int // 0 none/driver-class index; see bucketParts
	period int // 0 free, 1 history, 2 observed
}

// decomposition is the result of decomposing one tier: per bucket, a
// multiset of OS sets.
type decomposition struct {
	buckets map[bucket][]groupedSet
	// problems records constraint violations the greedy repair could not
	// fix; calibration reporting surfaces them.
	problems []string
}

// allSets flattens the decomposition.
func (d *decomposition) allSets() []groupedSet {
	var keys []bucket
	for b := range d.buckets {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].part != keys[j].part {
			return keys[i].part < keys[j].part
		}
		return keys[i].period < keys[j].period
	})
	var out []groupedSet
	for _, b := range keys {
		out = append(out, d.buckets[b]...)
	}
	return out
}

// decomposeTier turns bucketed pair matrices into set multisets while
// keeping every OS's total participation within budget[d]. preUsed counts
// participation already consumed by pre-placed sets (the special CVEs).
//
// The only pair-sum-preserving rewrite available is the triangle merge:
// one unit on each of {A,B}, {A,C}, {B,C} (within one bucket, so part and
// period stay coherent) becomes one {A,B,C} set, reducing each member's
// participation by one. The repair loop applies merges until no OS is
// over budget; the paper's tables leave enough triangles for this to
// succeed, which the exact Table III-V reproduction tests check.
func decomposeTier(matrices map[bucket]pairMatrix, budget map[osmap.Distro]int, preUsed map[osmap.Distro]int) *decomposition {
	dec := &decomposition{buckets: make(map[bucket][]groupedSet, len(matrices))}
	remaining := make(map[bucket]pairMatrix, len(matrices))
	triples := make(map[bucket]map[string]*groupedSet)
	for b, m := range matrices {
		remaining[b] = m.clone()
		triples[b] = make(map[string]*groupedSet)
	}

	used := func() map[osmap.Distro]int {
		u := make(map[osmap.Distro]int)
		for d, n := range preUsed {
			u[d] += n
		}
		for b := range remaining {
			for p, n := range remaining[b] {
				u[p.A] += n
				u[p.B] += n
			}
			for _, g := range triples[b] {
				for _, d := range g.set {
					u[d] += g.count
				}
			}
		}
		return u
	}

	bucketKeys := func() []bucket {
		var keys []bucket
		for b := range remaining {
			keys = append(keys, b)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].part != keys[j].part {
				return keys[i].part < keys[j].part
			}
			return keys[i].period < keys[j].period
		})
		return keys
	}

	for iter := 0; ; iter++ {
		if iter > 10000 {
			dec.problems = append(dec.problems, "triangle repair did not converge")
			break
		}
		u := used()
		var over osmap.Distro
		overflow := 0
		for _, d := range osmap.Distros() {
			if excess := u[d] - budget[d]; excess > overflow {
				overflow = excess
				over = d
			}
		}
		if overflow == 0 {
			break
		}
		// Find the triangle containing `over` with the largest mergeable
		// mass, preferring triangles whose other members are also over
		// budget.
		type candidate struct {
			b      bucket
			x, y   osmap.Distro
			mass   int
			relief int
		}
		var best *candidate
		ds := osmap.Distros()
		for _, b := range bucketKeys() {
			m := remaining[b]
			for i := 0; i < len(ds); i++ {
				for j := i + 1; j < len(ds); j++ {
					x, y := ds[i], ds[j]
					if x == over || y == over {
						continue
					}
					mass := min3(
						m[osmap.MakePair(over, x)],
						m[osmap.MakePair(over, y)],
						m[osmap.MakePair(x, y)],
					)
					if mass == 0 {
						continue
					}
					relief := 1
					if u[x] > budget[x] {
						relief++
					}
					if u[y] > budget[y] {
						relief++
					}
					c := candidate{b: b, x: x, y: y, mass: mass, relief: relief}
					if best == nil || c.relief > best.relief || (c.relief == best.relief && c.mass > best.mass) {
						cc := c
						best = &cc
					}
				}
			}
		}
		if best == nil {
			dec.problems = append(dec.problems,
				fmt.Sprintf("no triangle available to relieve %v (overflow %d)", over, overflow))
			break
		}
		merge := best.mass
		if merge > overflow {
			merge = overflow
		}
		m := remaining[best.b]
		m[osmap.MakePair(over, best.x)] -= merge
		m[osmap.MakePair(over, best.y)] -= merge
		m[osmap.MakePair(best.x, best.y)] -= merge
		set := newOSSet(over, best.x, best.y)
		tmap := triples[best.b]
		if g, ok := tmap[set.key()]; ok {
			g.count += merge
		} else {
			tmap[set.key()] = &groupedSet{set: set, count: merge}
		}
	}

	for _, b := range bucketKeys() {
		var sets []groupedSet
		var tripleKeys []string
		for k := range triples[b] {
			tripleKeys = append(tripleKeys, k)
		}
		sort.Strings(tripleKeys)
		for _, k := range tripleKeys {
			sets = append(sets, *triples[b][k])
		}
		sets = append(sets, pairsOnly(remaining[b])...)
		if len(sets) > 0 {
			dec.buckets[b] = sets
		}
	}
	return dec
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// splitPartPeriod solves the per-pair transportation problem: given the
// part marginals (driver, kernel, syssoft) and period marginals
// (history, observed) of one pair's remote count, produce a joint
// part×period split. The greedy fills kernel into history first, which
// keeps observed kernel/syssoft mass available for the Windows triple
// merges the budgets require.
func splitPartPeriod(parts [3]int, periods [2]int) [3][2]int {
	var out [3][2]int
	rem := periods
	for p := 0; p < 3; p++ {
		left := parts[p]
		take := left
		if take > rem[0] {
			take = rem[0]
		}
		out[p][0] = take
		rem[0] -= take
		left -= take
		out[p][1] = left
		rem[1] -= left
	}
	return out
}
