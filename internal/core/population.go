package core

import "osdiversity/internal/osmap"

// Population is the attack model's view of one profile's valid
// vulnerabilities: each surviving record's affected-distro mask and
// publication year, in CVE-ID order, with per-distro index lists beside
// them. The adversary draws a vulnerability by its position in a list,
// so the ID order is part of every simulated answer.
//
// A Study builds each profile's population once, on first use, and
// memoizes it with its tables (and each window's lists under their own
// key), so it lives and dies with its Study and is read-only once
// built.
type Population struct {
	study   *Study
	profile Profile
	words   int      // mask words per vulnerability
	masks   []uint64 // vulnerability i's mask: masks[i*words : (i+1)*words]
	years   []int32  // vulnerability i's publication year
	all     [][]int32
}

// Population returns the profile's attack population, built on the
// first call and shared by every later one.
func (s *Study) Population(profile Profile) *Population {
	return s.cached(ckey{q: qPopulation, profile: profile}, func() any { return s.buildPopulation(profile) }).(*Population)
}

// buildPopulation merges the segments' ID orders, keeping the records
// that survive the profile, so the population comes out in CVE-ID order
// without a sort over the whole corpus.
func (s *Study) buildPopulation(profile Profile) *Population {
	n := 0
	for _, g := range s.segs {
		n += popcountWords(g.profile[profile-1])
	}
	p := &Population{
		study:   s,
		profile: profile,
		words:   s.maskWords,
		masks:   make([]uint64, 0, n*s.maskWords),
		years:   make([]int32, 0, n),
	}
	s.mergeByID(func(gi int, i int32) {
		g := s.segs[gi]
		if g.profile[profile-1][i>>6]&(1<<uint(i&63)) != 0 {
			p.masks = append(p.masks, g.recs[i].mask...)
			p.years = append(p.years, int32(g.recs[i].year))
		}
	})
	p.all = p.lists(func(int) bool { return true })
	return p
}

// Len returns the population size.
func (p *Population) Len() int { return len(p.years) }

// Mask returns vulnerability i's affected distros as bits of the
// study's Distros(). The mask aliases the population; do not modify it.
func (p *Population) Mask(i int) osmap.Mask {
	return osmap.Mask(p.masks[i*p.words : (i+1)*p.words : (i+1)*p.words])
}

// Bit returns the distro's bit in the population's masks; false for a
// distro outside the study's universe, which has no vulnerabilities.
func (p *Population) Bit(d osmap.Distro) (int, bool) {
	b, ok := p.study.index[d]
	return b, ok
}

// Window returns, for each distro bit, the positions of the
// vulnerabilities affecting it whose publication year falls inside the
// window, ascending. The zero window is the whole population. Each
// window's lists are built once per Study; callers must not modify
// them.
func (p *Population) Window(w SelectionWindow) [][]int32 {
	if w == (SelectionWindow{}) {
		return p.all
	}
	k := ckey{q: qPopulationWindow, profile: p.profile, a: w.FromYear, b: w.ToYear}
	return p.study.cached(k, func() any {
		return p.lists(func(i int) bool { return w.Contains(int(p.years[i])) })
	}).([][]int32)
}

// lists groups the kept vulnerabilities by affected distro, every list
// carved out of one arena.
func (p *Population) lists(keep func(i int) bool) [][]int32 {
	counts := make([]int, p.study.nd)
	for i := range p.years {
		if keep(i) {
			p.Mask(i).ForEachBit(func(b int) { counts[b]++ })
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	arena := make([]int32, total)
	out := make([][]int32, len(counts))
	off := 0
	for b, c := range counts {
		out[b] = arena[off : off : off+c]
		off += c
	}
	for i := range p.years {
		if keep(i) {
			p.Mask(i).ForEachBit(func(b int) { out[b] = append(out[b], int32(i)) })
		}
	}
	return out
}
