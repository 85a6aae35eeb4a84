package core

import (
	"cmp"
	"slices"

	"osdiversity/internal/classify"
)

// A Study's valid records live in segments, one per publication year
// that has any, in ascending year order. A segment owns everything the
// engine derives from its year: the records in input order, their mask
// arena and release references, the posting bitsets, the compact pair
// postings, and memoized raw counts (see memo). It is sealed when built
// and never written afterwards, so a delta epoch shares every year it
// does not touch with its base by pointer, memos included: two epochs
// computing the same key on a shared segment wait on one computation.
// Every table is a finalizer over the summed raws of the segments; a
// history/observed split or a selection window covers whole years, so
// it sums the raws of the years inside it.

// segment is one publication year of a Study's valid records.
type segment struct {
	year  int
	recs  []record          // the year's valid records, in input order
	rel   relColumns        // release references of recs
	vidx  map[string]uint32 // rel.versions' positions, by version
	memo  memo              // raw counts over recs, keyed by profile, distro or release
	adopt bool              // columns alias a caller's memory (FromColumns)

	// Posting bitsets over recs: bit i stands for recs[i], and the tail
	// bits past len(recs) stay zero.
	distro   [][]uint64 // one per distro of the universe
	class    [4][]uint64
	remote   []uint64
	profile  [3][]uint64 // indexed Profile-1
	popcnt   []uint16    // per-record affected-distro count
	products []uint16    // per-record affected-product count

	// Compact pair postings of the records affecting >= 2 distros, in
	// record order: multiFlags packs classIdx+1 (bits 0-2; 0 =
	// unclassified) and the remote flag (bit 3), which together decide
	// every profile membership, and each record's C(k,2) pair indices
	// sit in multiPairs, delimited by multiPairOff. Only these records
	// can contribute to a pair, so the all-pairs queries stream them
	// instead of AND-ing every pair's postings.
	multiFlags   []uint8
	multiPairOff []int32
	multiPairs   []int32
}

// newSegment seals one year's valid records into a segment. recs is
// taken over; every mask is copied into one arena the segment owns, so
// the segment shares no memory with the digest batches or with the
// segment its kept records came from. refsOf(i) returns recs[i]'s
// release references; their versions are interned first-seen in record
// order.
func (s *Study) newSegment(year int, recs []record, refsOf func(i int) []relRef) *segment {
	g := &segment{year: year, recs: recs}
	ownMasks(recs, s.maskWords)
	g.rel = relColumns{off: make([]int32, len(recs)+1)}
	g.vidx = make(map[string]uint32)
	for i := range recs {
		for _, r := range refsOf(i) {
			vi, ok := g.vidx[r.version]
			if !ok {
				vi = uint32(len(g.rel.versions))
				g.vidx[r.version] = vi
				g.rel.versions = append(g.rel.versions, r.version)
			}
			g.rel.refs = append(g.rel.refs, uint64(r.d)<<32|uint64(vi))
		}
		g.rel.off[i+1] = int32(len(g.rel.refs))
	}
	s.indexSegment(g)
	return g
}

// indexSegment builds the segment's posting bitsets, per-record counts
// and pair postings from its records.
func (s *Study) indexSegment(g *segment) {
	n := len(g.recs)
	words := g.words()
	g.distro = make([][]uint64, s.nd)
	for d := range g.distro {
		g.distro[d] = make([]uint64, words)
	}
	for c := range g.class {
		g.class[c] = make([]uint64, words)
	}
	g.remote = make([]uint64, words)
	g.popcnt = make([]uint16, n)
	g.products = make([]uint16, n)
	nMulti, nPairRefs := 0, 0
	for i := range g.recs {
		r := &g.recs[i]
		w, b := i>>6, uint64(1)<<uint(i&63)
		r.mask.ForEachBit(func(bi int) { g.distro[bi][w] |= b })
		if ci := classIdx(r.class); ci >= 0 {
			g.class[ci][w] |= b
		}
		if r.remote {
			g.remote[w] |= b
		}
		g.popcnt[i] = clampU16(r.nos)
		g.products[i] = clampU16(r.products)
		if r.nos >= 2 {
			nMulti++
			nPairRefs += r.nos * (r.nos - 1) / 2
		}
	}
	g.deriveProfiles()

	g.multiFlags = make([]uint8, 0, nMulti)
	g.multiPairOff = make([]int32, 1, nMulti+1)
	g.multiPairs = make([]int32, 0, nPairRefs)
	bs := make([]int, s.nd)
	for i := range g.recs {
		r := &g.recs[i]
		if r.nos < 2 {
			continue
		}
		g.multiFlags = append(g.multiFlags, recFlags(r))
		nb := r.mask.Bits(bs)
		for x := 0; x < nb; x++ {
			row := bs[x] * s.nd
			for y := x + 1; y < nb; y++ {
				g.multiPairs = append(g.multiPairs, int32(s.pairAt[row+bs[y]]))
			}
		}
		g.multiPairOff = append(g.multiPairOff, int32(len(g.multiPairs)))
	}
}

// deriveProfiles fills the profile postings from the class and remote
// ones: Fat = every record, Thin = not Application, IsolatedThin = Thin
// and remote.
func (g *segment) deriveProfiles() {
	n, words := len(g.recs), g.words()
	fat := make([]uint64, words)
	thin := make([]uint64, words)
	its := make([]uint64, words)
	for i := range fat {
		fat[i] = ^uint64(0)
	}
	if words > 0 && n&63 != 0 {
		fat[words-1] = (uint64(1) << uint(n&63)) - 1
	}
	app := g.class[classIdx(classify.ClassApplication)]
	for i := range thin {
		thin[i] = fat[i] &^ app[i]
		its[i] = thin[i] & g.remote[i]
	}
	g.profile = [3][]uint64{fat, thin, its}
}

func (g *segment) words() int { return (len(g.recs) + 63) / 64 }

// byID returns the segment's record positions in CVE-ID order, equal
// identifiers in record order: the order Population and the most-shared
// listing merge across segments, and the one a delta searches for the
// identifiers it supersedes. It is nil when the records already are in
// that order, as a year's records usually are.
func (g *segment) byID() []int32 {
	return g.memo.get(ckey{q: qByID}, func() any {
		if slices.IsSortedFunc(g.recs, func(a, b record) int { return a.id.Compare(b.id) }) {
			return []int32(nil)
		}
		perm := make([]int32, len(g.recs))
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortFunc(perm, func(a, b int32) int {
			if c := g.recs[a].id.Compare(g.recs[b].id); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return perm
	}).([]int32)
}

// idAt returns the position of the segment's k-th record in ID order,
// perm being its byID order.
func idAt(perm []int32, k int) int32 {
	if perm == nil {
		return int32(k)
	}
	return perm[k]
}
