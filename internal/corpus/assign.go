package corpus

import (
	"fmt"
	"sort"

	"osdiversity/internal/classify"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
	"osdiversity/internal/paperdata"
)

// bucketOrder returns a decomposition's buckets in deterministic order.
func bucketOrder(dec *decomposition) []bucket {
	var keys []bucket
	for b := range dec.buckets {
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

// setReduction is a set's contribution to the distinct-count identity:
// (k-1)(k-2)/2 for a k-member set (0 for pairs and singles).
func setReduction(size int) int {
	if size < 3 {
		return 0
	}
	return (size - 1) * (size - 2) / 2
}

// decReduction sums the reduction already embodied in a decomposition.
func decReduction(dec *decomposition) int {
	total := 0
	for _, sets := range dec.buckets {
		for _, g := range sets {
			total += setReduction(len(g.set)) * g.count
		}
	}
	return total
}

// voluntaryMerges applies additional clique merges beyond the forced
// ones, pushing the global Σ (k-1)(k-2)/2 toward the paper's
// distinct-count identity (targetReduction). Merges only reduce per-OS
// participation and never change pairwise sums, so every calibrated
// table is preserved; the merged mass becomes multi-OS vulnerabilities,
// which is exactly what the identity says the paper's data must contain.
func (c *Corpus) voluntaryMerges(dec *decomposition) {
	remaining := targetReduction - c.mergedReduction
	if remaining <= 0 {
		return
	}
	for _, b := range bucketOrder(dec) {
		sets := dec.buckets[b]
		matrix := make(pairMatrix)
		var fixed []groupedSet
		for _, g := range sets {
			if len(g.set) == 2 {
				matrix[osmap.MakePair(g.set[0], g.set[1])] += g.count
			} else {
				fixed = append(fixed, g)
			}
		}
		for remaining > 0 {
			clique, mass := bestClique(matrix, 5)
			if mass == 0 || len(clique) < 3 {
				break
			}
			per := setReduction(len(clique))
			// Merge only as many instances as the budget still needs.
			if need := (remaining + per - 1) / per; mass > need {
				mass = need
			}
			for _, p := range osmap.PairsOf(clique) {
				matrix[p] -= mass
			}
			fixed = append(fixed, groupedSet{set: newOSSet(clique...), count: mass})
			remaining -= per * mass
			c.mergedReduction += per * mass
		}
		dec.buckets[b] = append(fixed, pairsOnly(matrix)...)
		if remaining <= 0 {
			break
		}
	}
}

// bestClique finds the largest clique (3..maxSize) whose minimum edge
// count is positive, preferring larger cliques and then larger mass.
// Search is exact over the 11-distro universe (tiny).
func bestClique(matrix pairMatrix, maxSize int) ([]osmap.Distro, int) {
	ds := osmap.Distros()
	adj := func(a, b osmap.Distro) int { return matrix[osmap.MakePair(a, b)] }

	var best []osmap.Distro
	bestMass := 0
	var extend func(clique []osmap.Distro, start int, mass int)
	extend = func(clique []osmap.Distro, start int, mass int) {
		if len(clique) >= 3 {
			if len(clique) > len(best) || (len(clique) == len(best) && mass > bestMass) {
				best = append([]osmap.Distro(nil), clique...)
				bestMass = mass
			}
		}
		if len(clique) == maxSize {
			return
		}
		for i := start; i < len(ds); i++ {
			d := ds[i]
			m := mass
			ok := true
			for _, e := range clique {
				w := adj(e, d)
				if w <= 0 {
					ok = false
					break
				}
				if m == 0 || w < m {
					m = w
				}
			}
			if ok {
				next := append(append([]osmap.Distro(nil), clique...), d)
				extend(next, i+1, m)
			}
		}
	}
	extend(nil, 0, 0)
	return best, bestMass
}

// assignYears distributes publication years in two phases so the
// derived series keep Figure 2's shape:
//
//  1. multi-OS sets (period-constrained by Table V) pick the year of
//     greatest remaining joint demand inside their window;
//  2. per-OS singles — the bulk of the population — fill exact integer
//     quotas derived from the Figure 2 weights by largest remainder, so
//     each curve's peaks, family correlation, and post-2005 decline
//     survive the hard constraints.
func (c *Corpus) assignYears() {
	type key struct {
		d osmap.Distro
		y int
	}
	target := make(map[key]float64)
	quota := make(map[key]int)
	assigned := make(map[key]int)
	for d, weights := range paperdata.YearWeights {
		var sum int
		for _, w := range weights {
			sum += w.Weight
		}
		scale := float64(paperdata.ValidCounts[d]) / float64(sum)
		// Largest-remainder rounding to integer quotas per year.
		type frac struct {
			year int
			rem  float64
		}
		var fracs []frac
		total := 0
		for _, w := range weights {
			exact := float64(w.Weight) * scale
			target[key{d, w.Year}] = exact
			q := int(exact)
			quota[key{d, w.Year}] = q
			total += q
			fracs = append(fracs, frac{year: w.Year, rem: exact - float64(q)})
		}
		sort.SliceStable(fracs, func(i, j int) bool {
			if fracs[i].rem != fracs[j].rem {
				return fracs[i].rem > fracs[j].rem
			}
			return fracs[i].year < fracs[j].year
		})
		for i := 0; total < paperdata.ValidCounts[d] && i < len(fracs); i++ {
			quota[key{d, fracs[i].year}]++
			total++
		}
	}

	// Pre-count specs with fixed years (specials, Table VI wiring).
	for _, s := range c.Specs {
		if s.Year != 0 {
			for _, d := range s.Clusters {
				assigned[key{d, s.Year}]++
			}
		}
	}

	window := func(s *Spec) (lo, hi int) {
		lo, hi = paperdata.StudyStartYear, paperdata.StudyEndYear
		for _, d := range s.Clusters {
			if fr := d.FirstReleaseYear(); fr > lo {
				lo = fr
			}
		}
		switch s.Period {
		case periodHistory:
			hi = paperdata.HistoryEndYear
		case periodObserved:
			lo = max(lo, paperdata.HistoryEndYear+1)
		}
		if lo > hi {
			c.Problems = append(c.Problems,
				fmt.Sprintf("spec %v: empty year window [%d,%d]", s.Clusters, lo, hi))
			lo = hi
		}
		return lo, hi
	}

	// Phase 1: multi-OS sets by joint remaining demand.
	var multis, singles []*Spec
	for _, s := range c.Specs {
		if s.Year != 0 {
			continue
		}
		if len(s.Clusters) > 1 || s.PreRelease {
			multis = append(multis, s)
		} else {
			singles = append(singles, s)
		}
	}
	sort.SliceStable(multis, func(i, j int) bool {
		if len(multis[i].Clusters) != len(multis[j].Clusters) {
			return len(multis[i].Clusters) > len(multis[j].Clusters)
		}
		return multis[i].Clusters.key() < multis[j].Clusters.key()
	})
	preReleaseAlt := 0
	for _, s := range multis {
		if s.PreRelease {
			s.Year = 1997 + preReleaseAlt%2
			preReleaseAlt++
			for _, d := range s.Clusters {
				assigned[key{d, s.Year}]++
			}
			continue
		}
		lo, hi := window(s)
		bestYear, bestDemand := lo, -1e18
		for y := lo; y <= hi; y++ {
			demand := 0.0
			for _, d := range s.Clusters {
				demand += target[key{d, y}] - float64(assigned[key{d, y}])
			}
			if demand > bestDemand {
				bestDemand = demand
				bestYear = y
			}
		}
		s.Year = bestYear
		for _, d := range s.Clusters {
			assigned[key{d, s.Year}]++
		}
	}

	// Phase 2: singles fill each OS's residual quota per year. Period
	// constrained singles go first so free ones can absorb the rest.
	// The seven pre-release Windows 2000 entries already hold years, so
	// their quota is consumed via `assigned`.
	sort.SliceStable(singles, func(i, j int) bool {
		a, b := singles[i], singles[j]
		if a.Clusters[0] != b.Clusters[0] {
			return a.Clusters[0] < b.Clusters[0]
		}
		if a.Period != b.Period {
			return a.Period > b.Period // constrained (1,2) before free (0)
		}
		return false
	})
	for _, s := range singles {
		d := s.Clusters[0]
		lo, hi := window(s)
		bestYear := -1
		bestResidual := 0
		for y := lo; y <= hi; y++ {
			if res := quota[key{d, y}] - assigned[key{d, y}]; res > bestResidual {
				bestResidual = res
				bestYear = y
			}
		}
		if bestYear == -1 {
			// Quotas exhausted in the window (hard constraints consumed
			// them); take the least-overshot year.
			bestYear = lo
			bestOver := 1 << 30
			for y := lo; y <= hi; y++ {
				if over := assigned[key{d, y}] - quota[key{d, y}]; over < bestOver {
					bestOver = over
					bestYear = y
				}
			}
		}
		s.Year = bestYear
		assigned[key{d, s.Year}]++
	}
}

// planInvalid appends the Unknown/Unspecified/Disputed entries of
// Table I, using the share plans that reconcile per-OS columns with the
// distinct totals.
func (c *Corpus) planInvalid() {
	type plan struct {
		validity classify.Validity
		shares   []paperdata.InvalidSharePlan
		column   func(paperdata.InvalidTotals) int
	}
	plans := []plan{
		{classify.Unknown, paperdata.UnknownShares, func(t paperdata.InvalidTotals) int { return t.Unknown }},
		{classify.Unspecified, paperdata.UnspecifiedShares, func(t paperdata.InvalidTotals) int { return t.Unspecified }},
		{classify.Disputed, paperdata.DisputedShares, func(t paperdata.InvalidTotals) int { return t.Disputed }},
	}
	alt := 0
	for _, pl := range plans {
		consumed := map[osmap.Distro]int{}
		for _, share := range pl.shares {
			for i := 0; i < share.Count; i++ {
				c.Specs = append(c.Specs, c.invalidSpec(newOSSet(share.Members...), pl.validity, &alt))
			}
			for _, m := range share.Members {
				consumed[m] += share.Count
			}
		}
		for _, d := range osmap.Distros() {
			n := pl.column(paperdata.InvalidCounts[d]) - consumed[d]
			for i := 0; i < n; i++ {
				c.Specs = append(c.Specs, c.invalidSpec(newOSSet(d), pl.validity, &alt))
			}
		}
	}
}

func (c *Corpus) invalidSpec(set osSet, validity classify.Validity, alt *int) *Spec {
	lo := paperdata.StudyStartYear
	for _, d := range set {
		if fr := d.FirstReleaseYear(); fr > lo {
			lo = fr
		}
	}
	// Spread invalid entries over the tail of each product's window;
	// NVD's Unknown/Unspecified tags cluster in later feeds.
	year := max(lo, 2002) + *alt%4
	if year > paperdata.StudyEndYear {
		year = paperdata.StudyEndYear
	}
	*alt++
	return &Spec{
		Clusters: set,
		Class:    classify.ClassKernel, // nominal; invalid entries are excluded from class analysis
		Remote:   *alt%2 == 0,
		Period:   periodFree,
		Year:     year,
		Validity: validity,
	}
}

// assignIDs gives every spec a CVE identifier: per-year sequences
// starting at 6001 (clear of the three pinned historical IDs).
func (c *Corpus) assignIDs() {
	counters := make(map[int]int)
	// Deterministic order: year, then set size desc, then cluster key,
	// then class.
	order := append([]*Spec(nil), c.Specs...)
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Year != b.Year {
			return a.Year < b.Year
		}
		if len(a.Clusters) != len(b.Clusters) {
			return len(a.Clusters) > len(b.Clusters)
		}
		if a.Clusters.key() != b.Clusters.key() {
			return a.Clusters.key() < b.Clusters.key()
		}
		return a.Class < b.Class
	})
	for _, s := range order {
		if s.FixedID != "" {
			continue
		}
		counters[s.Year]++
		s.FixedID = fmt.Sprintf("CVE-%04d-%04d", s.Year, 6000+counters[s.Year])
	}
}

// augmentProducts attaches unclustered OS products to selected valid
// entries so that the product-level k-wise distribution matches §IV-B:
// exactly one 9-product vulnerability, two 6-product ones, nine with ≥5,
// 102 with ≥4 and 285 with ≥3.
func (c *Corpus) augmentProducts() {
	targets := map[int]int{5: paperdata.KWiseProducts[5], 4: paperdata.KWiseProducts[4], 3: paperdata.KWiseProducts[3]}

	// Cardinality is the number of distinct (vendor, product) platforms;
	// several versions of one product count once, matching the k-wise
	// analysis.
	distinctProducts := func(e *cve.Entry) int {
		seen := make(map[string]bool, len(e.Products))
		for _, p := range e.Products {
			seen[p.Vendor+"/"+p.Product] = true
		}
		return len(seen)
	}

	// Count current product cardinalities (valid entries only).
	count := func(minProducts int) int {
		n := 0
		for i, s := range c.Specs {
			if s.Validity != classify.Valid {
				continue
			}
			if distinctProducts(c.Entries[i]) >= minProducts {
				n++
			}
		}
		return n
	}

	// Candidates for promotion, largest cluster sets first so the extra
	// products stay plausible, skipping the pinned specials.
	type cand struct {
		idx  int
		size int
	}
	var candidates []cand
	for i, s := range c.Specs {
		if s.Validity != classify.Valid || len(s.Extras) > 0 || s.PreRelease {
			continue
		}
		candidates = append(candidates, cand{idx: i, size: distinctProducts(c.Entries[i])})
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		if candidates[i].size != candidates[j].size {
			return candidates[i].size > candidates[j].size
		}
		return c.Specs[candidates[i].idx].FixedID < c.Specs[candidates[j].idx].FixedID
	})

	used := 0
	for _, level := range []int{5, 4, 3} {
		deficit := targets[level] - count(level)
		for deficit > 0 && used < len(candidates) {
			cd := candidates[used]
			used++
			cur := distinctProducts(c.Entries[cd.idx])
			if cur >= level {
				continue // already counted
			}
			if added := c.addExtras(cd.idx, level-cur); added {
				deficit--
			}
		}
		if deficit > 0 {
			c.Problems = append(c.Problems,
				fmt.Sprintf("product k-wise: %d short of the >=%d-product target", deficit, level))
		}
	}
}

// familyExtraPools maps each family to plausible unclustered co-affected
// products.
var familyExtraPools = map[osmap.Family][]string{
	osmap.FamilyWindows: {
		"cpe:/o:microsoft:windows_xp::sp3",
		"cpe:/o:microsoft:windows_nt:4.0",
		"cpe:/o:microsoft:windows_vista",
	},
	osmap.FamilyBSD: {
		"cpe:/o:apple:mac_os_x:10.5",
		"cpe:/o:ibm:aix:5.3",
		"cpe:/o:sgi:irix:6.5",
	},
	osmap.FamilyLinux: {
		"cpe:/o:suse:suse_linux:10.1",
		"cpe:/o:slackware:slackware_linux:12.0",
		"cpe:/o:mandrakesoft:mandrake_linux:2008.0",
	},
	osmap.FamilySolaris: {
		"cpe:/o:hp:hp-ux:11.11",
		"cpe:/o:ibm:aix:5.3",
		"cpe:/o:sgi:irix:6.5",
	},
}

// addExtras appends n unclustered products to entry idx, drawn from the
// pools of its member families. Reports whether n products were added.
func (c *Corpus) addExtras(idx, n int) bool {
	s := c.Specs[idx]
	entry := c.Entries[idx]
	var pool []string
	seenFam := map[osmap.Family]bool{}
	for _, d := range s.Clusters {
		f := d.Family()
		if !seenFam[f] {
			seenFam[f] = true
			pool = append(pool, familyExtraPools[f]...)
		}
	}
	added := 0
	for _, uri := range pool {
		if added == n {
			break
		}
		name := cpe.MustParse(uri)
		dup := false
		for _, p := range entry.Products {
			if p == name {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		entry.Products = append(entry.Products, name)
		s.Extras = append(s.Extras, name)
		added++
	}
	return added == n
}
