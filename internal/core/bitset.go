package core

import (
	"math/bits"
	"sync"

	"osdiversity/internal/classify"
	"osdiversity/internal/osmap"
)

// This file is the columnar bitset engine, the Study's only query
// path. Each year segment (segment.go) holds posting bitsets over its
// own records: for every distribution, component class and profile,
// one packed []uint64 with bit i standing for the segment's i-th
// record. A segment answers raw counts with word-wise AND + popcount
// loops and pair-posting sweeps, memoized per segment; each table adds
// the raws of the segments it covers and finalizes the sum. A period or
// window covers whole years, so it adds the raws of the years inside it
// instead of sweeping a bit range. The segments' raws compute across
// the WithParallelism worker pool, one segment per task; at 100k+
// entries each table streams a few hundred kilobytes of postings the
// first time and re-adds two dozen memoized rows afterwards.

// invIndex holds the posting bitsets over a Study's invalid records
// (Table I's removed columns).
type invIndex struct {
	distro   [][]uint64
	validity [3][]uint64 // unknown, unspecified, disputed
}

// invIndex builds (once) and returns the invalid-record postings.
func (s *Study) invIndex() *invIndex {
	s.invOnce.Do(func() {
		words := (len(s.invalid) + 63) / 64
		idx := &invIndex{distro: make([][]uint64, s.nd)}
		for d := range idx.distro {
			idx.distro[d] = make([]uint64, words)
		}
		for v := range idx.validity {
			idx.validity[v] = make([]uint64, words)
		}
		for i := range s.invalid {
			r := &s.invalid[i]
			w, b := i>>6, uint64(1)<<uint(i&63)
			r.mask.ForEachBit(func(bi int) { idx.distro[bi][w] |= b })
			idx.validity[validityIdx(r.validity)][w] |= b
		}
		s.inv = idx
	})
	return s.inv
}

func clampU16(v int) uint16 {
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

// --- popcount kernels ----------------------------------------------------

func popcountWords(a []uint64) int {
	n := 0
	for _, w := range a {
		n += bits.OnesCount64(w)
	}
	return n
}

func andPopcount(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

func and3Popcount(a, b, c []uint64) int {
	b = b[:len(a)]
	c = c[:len(a)]
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i] & c[i])
	}
	return n
}

// --- bit-range kernels ---------------------------------------------------

// extractBits copies bit positions [lo, hi) of a into out, which holds
// (hi-lo+63)/64 words, so that out's bit 0 is a's bit lo: the adoption
// of a year's postings out of a snapshot's whole-corpus bitsets.
func extractBits(out, a []uint64, lo, hi int) {
	sh := uint(lo & 63)
	for i := range out {
		w := lo>>6 + i
		v := a[w] >> sh
		if sh != 0 && w+1 < len(a) {
			v |= a[w+1] << (64 - sh)
		}
		out[i] = v
	}
	if n := hi - lo; n&63 != 0 {
		out[len(out)-1] &= uint64(1)<<uint(n&63) - 1
	}
}

// appendBits appends the first n bits of src to the bitset dst, which
// holds nbits bits so far (its tail bits past nbits zero), and returns
// the extended bitset: the export's concatenation of year postings.
func appendBits(dst []uint64, nbits int, src []uint64, n int) []uint64 {
	sh := uint(nbits & 63)
	for i := 0; i < (n+63)/64; i++ {
		v := src[i]
		if rem := n - i*64; rem < 64 {
			v &= uint64(1)<<uint(rem) - 1
		}
		if sh == 0 {
			dst = append(dst, v)
			continue
		}
		dst[len(dst)-1] |= v << sh
		if i*64+int(64-sh) < n {
			dst = append(dst, v>>(64-sh))
		}
	}
	return dst
}

// --- per-segment raw counts ----------------------------------------------

// multiRemoteFlag marks remotely exploitable records in multiFlags.
const multiRemoteFlag = 1 << 3

// multiClassOf extracts the classIdx+1 component of a flags byte.
func multiClassOf(f uint8) uint8 { return f & 7 }

// multiMatchesITS mirrors record.matches(IsolatedThinServer) on a flags
// byte: not Application-class, and remote.
func multiMatchesITS(f uint8) bool {
	return multiClassOf(f) != uint8(classIdx(classify.ClassApplication)+1) && f&multiRemoteFlag != 0
}

// allTotals returns the segment's per-distro counts under each
// profile, concatenated in Profile order (nd each).
func (g *segment) allTotals() []int32 {
	return g.memo.get(ckey{q: qTotals}, func() any {
		nd := len(g.distro)
		out := make([]int32, 3*nd)
		for p, prof := range g.profile {
			for d, post := range g.distro {
				out[p*nd+d] = int32(andPopcount(post, prof))
			}
		}
		return out
	}).([]int32)
}

// totals returns the segment's per-distro counts under a profile.
func (g *segment) totals(profile Profile) []int32 {
	nd := len(g.distro)
	return g.allTotals()[int(profile-1)*nd : int(profile)*nd]
}

// classCounts returns the segment's Table II raws: each distro's four
// class counts (row d at [4d, 4d+4)), then the distinct count of each
// class.
func (g *segment) classCounts() []int32 {
	return g.memo.get(ckey{q: qClass}, func() any {
		nd := len(g.distro)
		out := make([]int32, 4*(nd+1))
		for d, post := range g.distro {
			for c := range g.class {
				out[4*d+c] = int32(andPopcount(post, g.class[c]))
			}
		}
		for c := range g.class {
			out[4*nd+c] = int32(popcountWords(g.class[c]))
		}
		return out
	}).([]int32)
}

// pairCounts returns the segment's pair overlaps of the three profiles,
// concatenated in Profile order (np each), from one sweep of the pair
// postings: each record's pair indices count in the Fat row always, the
// Thin row when it is not Application-class, and the IsolatedThin row
// when it is also remote.
func (g *segment) pairCounts(np int) []int32 {
	return g.memo.get(ckey{q: qPairsAll}, func() any {
		out := make([]int32, 3*np)
		fat, thin, its := out[:np], out[np:2*np], out[2*np:]
		appFlag := uint8(classIdx(classify.ClassApplication) + 1)
		for pos, f := range g.multiFlags {
			isThin := multiClassOf(f) != appFlag
			isITS := isThin && f&multiRemoteFlag != 0
			for _, pi := range g.multiPairs[g.multiPairOff[pos]:g.multiPairOff[pos+1]] {
				fat[pi]++
				if isThin {
					thin[pi]++
				}
				if isITS {
					its[pi]++
				}
			}
		}
		return out
	}).([]int32)
}

// itsPairs is the Isolated-Thin-Server row of pairCounts.
func (g *segment) itsPairs(np int) []int32 { return g.pairCounts(np)[2*np:] }

// partCounts returns the segment's Table IV raws: the Isolated Thin
// Server pair overlaps of the driver, kernel and system-software
// classes, concatenated in that order (np each).
func (g *segment) partCounts(np int) []int32 {
	return g.memo.get(ckey{q: qParts}, func() any {
		out := make([]int32, 3*np)
		for pos, f := range g.multiFlags {
			cls := int(multiClassOf(f))
			if !multiMatchesITS(f) || cls == 0 {
				continue
			}
			row := out[(cls-1)*np : cls*np]
			for _, pi := range g.multiPairs[g.multiPairOff[pos]:g.multiPairOff[pos+1]] {
				row[pi]++
			}
		}
		return out
	}).([]int32)
}

// kwiseHistogram tallies how many of the segment's records surviving
// the profile carry each value of a per-record count column (distro
// count, or product count when products is set), by walking the set
// bits of the profile posting.
func (g *segment) kwiseHistogram(profile Profile, products bool) []int32 {
	q := uint8(qKWiseClusters)
	column := g.popcnt
	if products {
		q, column = qKWiseProducts, g.products
	}
	return g.memo.get(ckey{q: q, profile: profile}, func() any {
		var hist []int32
		for wi, w := range g.profile[profile-1] {
			base := wi << 6
			for ; w != 0; w &= w - 1 {
				v := int(column[base+bits.TrailingZeros64(w)])
				for len(hist) <= v {
					hist = append(hist, 0)
				}
				hist[v]++
			}
		}
		return hist
	}).([]int32)
}

// releaseBits returns the posting bitset of the segment's records whose
// CPE list names the (distro, version) release, built once per release;
// nil when no record of the segment names the version. The memo is
// keyed by the version's position in the segment's version table, so
// it holds at most one bitset per distro and version the table has.
func (g *segment) releaseBits(d osmap.Distro, version string) []uint64 {
	vi, ok := g.vidx[version]
	if !ok {
		return nil
	}
	return g.memo.get(ckey{q: qRelease, a: int(d), b: int(vi)}, func() any {
		bs := make([]uint64, g.words())
		for i := range g.recs {
			if g.rel.affectsRelease(i, d, version) {
				bs[i>>6] |= 1 << uint(i&63)
			}
		}
		return bs
	}).([]uint64)
}

// --- summing segments ----------------------------------------------------

// sumSegments adds the raw rows (width values each) of the segments
// keep accepts, or of every segment when keep is nil. The rows compute
// (or come from the segments' memos) across the worker pool first, one
// segment per task; integer sums make the total identical at any worker
// count.
func (s *Study) sumSegments(width int, keep func(g *segment) bool, raw func(g *segment) []int32) []int {
	rows := make([][]int32, len(s.segs))
	eachSegment(s.workers(), len(s.segs), func(i int) {
		if keep == nil || keep(s.segs[i]) {
			rows[i] = raw(s.segs[i])
		}
	})
	out := make([]int, width)
	for _, row := range rows {
		for j, v := range row {
			out[j] += int(v)
		}
	}
	return out
}

// --- table queries -------------------------------------------------------

func (s *Study) validityBitset() *validityResult {
	valid := s.totals(FatServer)
	inv := s.invIndex()
	res := &validityResult{rows: make([]ValidityRow, s.nd)}
	for d := range res.rows {
		res.rows[d] = ValidityRow{
			Distro:      s.distros[d],
			Valid:       valid[d],
			Unknown:     andPopcount(inv.distro[d], inv.validity[0]),
			Unspecified: andPopcount(inv.distro[d], inv.validity[1]),
			Disputed:    andPopcount(inv.distro[d], inv.validity[2]),
		}
	}
	res.distinct = ValidityRow{
		Valid:       s.nValid,
		Unknown:     popcountWords(inv.validity[0]),
		Unspecified: popcountWords(inv.validity[1]),
		Disputed:    popcountWords(inv.validity[2]),
	}
	return res
}

// classSums returns the summed classCounts raws of every segment.
func (s *Study) classSums() []int {
	return s.cached(ckey{q: qClassSums}, func() any {
		return s.sumSegments(4*(s.nd+1), nil, (*segment).classCounts)
	}).([]int)
}

func (s *Study) classBitset() *classResult {
	sums := s.classSums()
	res := &classResult{rows: make([]ClassRow, s.nd)}
	for d := range res.rows {
		c := sums[4*d : 4*d+4]
		res.rows[d] = ClassRow{Distro: s.distros[d], Driver: c[0], Kernel: c[1], SysSoft: c[2], App: c[3]}
	}
	res.shares = ClassShares([4]int(sums[4*s.nd:]), s.nValid)
	return res
}

// totalsBitset sums the segments' per-distro totals of all three
// profiles at once (nd each, Profile order).
func (s *Study) totalsBitset() []int {
	return s.sumSegments(3*s.nd, nil, (*segment).allTotals)
}

// pairsAllResult memoizes the three profiles' pair matrices.
type pairsAllResult struct {
	counts [3][]int // indexed Profile-1
}

// pairsAllBitset sums the segments' pair overlaps of all three profiles.
func (s *Study) pairsAllBitset() *pairsAllResult {
	return s.cached(ckey{q: qPairsAll}, func() any {
		np := len(s.pairs)
		sums := s.sumSegments(3*np, nil, func(g *segment) []int32 { return g.pairCounts(np) })
		return &pairsAllResult{counts: [3][]int{sums[:np:np], sums[np : 2*np : 2*np], sums[2*np:]}}
	}).(*pairsAllResult)
}

func (s *Study) pairCountsBitset(profile Profile) []int {
	return s.pairsAllBitset().counts[profile-1]
}

func (s *Study) partsBitset() []PartCounts {
	np := len(s.pairs)
	sums := s.sumSegments(3*np, nil, func(g *segment) []int32 { return g.partCounts(np) })
	out := make([]PartCounts, np)
	for i := range out {
		out[i] = PartCounts{Driver: sums[i], Kernel: sums[np+i], SysSoft: sums[2*np+i]}
	}
	return out
}

// periodsBitset splits the Isolated Thin Server pair overlaps at the end
// of splitYear: the years up to it are the history, the rest observed.
func (s *Study) periodsBitset(splitYear int) []PeriodCounts {
	np := len(s.pairs)
	raw := func(g *segment) []int32 { return g.itsPairs(np) }
	history := s.sumSegments(np, func(g *segment) bool { return g.year <= splitYear }, raw)
	observed := s.sumSegments(np, func(g *segment) bool { return g.year > splitYear }, raw)
	out := make([]PeriodCounts, np)
	for i := range out {
		out[i] = PeriodCounts{History: history[i], Observed: observed[i]}
	}
	return out
}

// temporalBitset reads one distro's per-year counts off the segments'
// Fat Server totals.
func (s *Study) temporalBitset(distroIdx int) map[int]int {
	out := make(map[int]int)
	eachSegment(s.workers(), len(s.segs), func(i int) { s.segs[i].totals(FatServer) })
	for _, g := range s.segs {
		if c := g.totals(FatServer)[distroIdx]; c > 0 {
			out[g.year] = int(c)
		}
	}
	return out
}

// kwiseHistogram sums the segments' histograms of a count column under
// a profile.
func (s *Study) kwiseHistogram(profile Profile, products bool) []int {
	hists := make([][]int32, len(s.segs))
	eachSegment(s.workers(), len(s.segs), func(i int) { hists[i] = s.segs[i].kwiseHistogram(profile, products) })
	var out []int
	for _, h := range hists {
		for len(out) < len(h) {
			out = append(out, 0)
		}
		for v, c := range h {
			out[v] += int(c)
		}
	}
	return out
}

// atLeastMap converts an exact-value histogram into the "affects at
// least k" map the K-wise tables report (keys from 2 up).
func atLeastMap(hist []int) map[int]int {
	out := make(map[int]int)
	cum := 0
	for k := len(hist) - 1; k >= 2; k-- {
		cum += hist[k]
		if cum > 0 {
			out[k] = cum
		}
	}
	return out
}

func (s *Study) kwiseClustersBitset(profile Profile) map[int]int {
	return atLeastMap(s.kwiseHistogram(profile, false))
}

func (s *Study) kwiseProductsBitset(profile Profile) map[int]int {
	return atLeastMap(s.kwiseHistogram(profile, true))
}

func (s *Study) windowPairsBitset(w SelectionWindow) []int {
	np := len(s.pairs)
	return s.sumSegments(np, func(g *segment) bool { return w.Contains(g.year) },
		func(g *segment) []int32 { return g.itsPairs(np) })
}

func (s *Study) windowTotalsBitset(w SelectionWindow) []int {
	return s.sumSegments(s.nd, func(g *segment) bool { return w.Contains(g.year) },
		func(g *segment) []int32 { return g.totals(IsolatedThinServer) })
}

// releaseKey names a Table VI release.
type releaseKey struct {
	d       osmap.Distro
	version string
}

// releasePostings returns the segments' releaseBits of the (distro,
// version) release, indexed like segs (nil for a year that does not
// name it); nil when no year does. The epoch memoizes the list of each
// release its records name, so a repeated Table VI cell costs two
// lookups and one popcount per year, and a release no record names
// leaves no memo entry.
func (s *Study) releasePostings(d osmap.Distro, version string) [][]uint64 {
	k := releaseKey{d, version}
	if v, ok := s.relPostings.Load(k); ok {
		return v.([][]uint64)
	}
	var out [][]uint64
	for i, g := range s.segs {
		if bs := g.releaseBits(d, version); bs != nil {
			if out == nil {
				out = make([][]uint64, len(s.segs))
			}
			out[i] = bs
		}
	}
	if out != nil {
		s.relPostings.Store(k, out)
	}
	return out
}

// --- most-shared order and ID-order merges -------------------------------

// sharedPrefix is an epoch's merged most-shared order, grown on demand.
type sharedPrefix struct {
	mu    sync.Mutex
	order []uint64 // packed (segment, record) positions
}

// mostSharedPrefix returns the first n (at most) valid records, as
// packed (segment, record) positions, in the most-shared order: product
// count descending, ties by CVE ID ascending. Each segment memoizes its
// own order; the epoch merges them only as far as requests read,
// doubling the merged prefix when a request reads past it, so it merges
// a few times per epoch at most, not once per request. The returned
// slice is read-only.
func (s *Study) mostSharedPrefix(n int) []uint64 {
	p := s.cached(ckey{q: qMostShared}, func() any { return &sharedPrefix{} }).(*sharedPrefix)
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > len(p.order) && len(p.order) < s.nValid {
		m := min(s.nValid, max(n, 2*len(p.order), 64))
		orders := make([][]int32, len(s.segs))
		eachSegment(s.workers(), len(s.segs), func(i int) { orders[i] = s.segs[i].mostShared() })
		order := make([]uint64, 0, m)
		s.mergeSegments(orders, true, func(gi int, i int32) bool {
			order = append(order, packPos(gi, i))
			return len(order) < m
		})
		p.order = order
	}
	return p.order[:min(n, len(p.order))]
}

// mostShared returns the segment's record positions in the most-shared
// order: a stable counting sort of its ID order by product count,
// descending.
func (g *segment) mostShared() []int32 {
	return g.memo.get(ckey{q: qMostShared}, func() any {
		perm := g.byID()
		maxP := 0
		for i := range g.recs {
			maxP = max(maxP, g.recs[i].products)
		}
		// start[k] is where the records with maxP-k products begin.
		start := make([]int, maxP+2)
		for i := range g.recs {
			start[maxP-g.recs[i].products+1]++
		}
		for k := 1; k < len(start); k++ {
			start[k] += start[k-1]
		}
		out := make([]int32, len(g.recs))
		for k := range g.recs {
			i := idAt(perm, k)
			p := maxP - g.recs[i].products
			out[start[p]] = i
			start[p]++
		}
		return out
	}).([]int32)
}

// packPos packs a record's segment index and position in the segment.
func packPos(gi int, i int32) uint64 { return uint64(gi)<<32 | uint64(uint32(i)) }

// recAt resolves a packed position.
func (s *Study) recAt(pos uint64) *record { return &s.segs[pos>>32].recs[uint32(pos)] }

// mergeByID visits every valid record in CVE-ID order, equal
// identifiers in year then record order, as its segment index and
// position in the segment.
func (s *Study) mergeByID(visit func(gi int, i int32)) {
	perms := make([][]int32, len(s.segs))
	eachSegment(s.workers(), len(s.segs), func(i int) { perms[i] = s.segs[i].byID() })
	s.mergeSegments(perms, false, func(gi int, i int32) bool {
		visit(gi, i)
		return true
	})
}

// precedes reports whether record a of segment ga comes before record b
// of segment gb: product count descending first when byProducts is set,
// then CVE ID, then segment, so a merge is the stable sort of the
// records in year order.
func precedes(a *record, ga int, b *record, gb int, byProducts bool) bool {
	if byProducts && a.products != b.products {
		return a.products > b.products
	}
	if x := a.id.Compare(b.id); x != 0 {
		return x < 0
	}
	return ga < gb
}

// mergeCursor walks one segment's order during mergeSegments.
type mergeCursor struct {
	gi   int
	recs []record
	perm []int32 // the segment's order; nil is record order
	pos  int
}

func (c *mergeCursor) before(o *mergeCursor, byProducts bool) bool {
	return precedes(&c.recs[idAt(c.perm, c.pos)], c.gi, &o.recs[idAt(o.perm, o.pos)], o.gi, byProducts)
}

// mergeSegments merges the segments' orders (perms[gi] orders segment
// gi, nil meaning record order; each sorted by the same key) into one
// through a heap of one cursor per segment, handing visit each record's
// segment index and position until it returns false.
func (s *Study) mergeSegments(perms [][]int32, byProducts bool, visit func(gi int, i int32) bool) {
	h := make([]*mergeCursor, 0, len(s.segs))
	for gi, g := range s.segs {
		h = append(h, &mergeCursor{gi: gi, recs: g.recs, perm: perms[gi]})
	}
	// least returns the least of h[i] and its children, i when none is.
	least := func(i int) int {
		m := i
		if c := 2*i + 1; c < len(h) && h[c].before(h[m], byProducts) {
			m = c
		}
		if c := 2*i + 2; c < len(h) && h[c].before(h[m], byProducts) {
			m = c
		}
		return m
	}
	down := func(i int) {
		for m := least(i); m != i; m = least(i) {
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		c := h[0]
		if !visit(c.gi, idAt(c.perm, c.pos)) {
			return
		}
		c.pos++
		if c.pos == len(c.recs) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}
