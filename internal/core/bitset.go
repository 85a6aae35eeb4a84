package core

import (
	"math/bits"
	"sort"

	"osdiversity/internal/classify"
	"osdiversity/internal/osmap"
)

// This file is the columnar bitset engine, the Study's only query
// path. At first use it transposes the row-oriented record slice into
// posting bitsets: for every distribution, component class, profile and
// validity state, one packed []uint64 with bit i representing the i-th
// record. Records are sorted by publication year at ingestion, so the
// per-year segment offsets make every period/window query a popcount
// over a contiguous bit range. Each table then reduces to word-wise
// AND + popcount loops, sharded across distros/pairs on the worker pool
// of parallel.go; at 100k+ entries the engine streams a few hundred
// kilobytes of postings per table instead of megabytes of records.

// bitIndex is the columnar index over the (immutable) record set.
type bitIndex struct {
	n     int // valid records
	words int

	distro   [][]uint64 // nd posting bitsets over valid records
	class    [4][]uint64
	remote   []uint64
	profile  [3][]uint64 // indexed Profile-1
	popcnt   []uint16    // per-record affected-distro count
	products []uint16    // per-record affected-product count

	// Year segmentation: records are sorted by year, so yearStart[k] is
	// the first record index with year >= minYear+k and
	// yearStart[span+1] == n.
	minYear, maxYear int
	yearStart        []int

	// Compact multi-record pair postings: only records affecting >= 2
	// distros can contribute to any pair, so the all-pairs queries
	// stream these packed columns (a few hundred KB at 100k entries)
	// instead of AND-ing every pair's full postings. multi holds the
	// record indices ascending (hence year-sorted); multiFlags packs
	// classIdx+1 (bits 0-2; 0 = unclassified) and the remote flag
	// (bit 3), which together decide every profile membership; each
	// record's C(k,2) pair indices are materialized once into the
	// multiPairs arena, delimited by multiPairOff.
	multi        []int32
	multiFlags   []uint8
	multiPairOff []int32
	multiPairs   []int32

	// Postings over the invalid records (Table I's removed columns).
	invWords    int
	invDistro   [][]uint64
	invValidity [3][]uint64 // unknown, unspecified, disputed
}

// bitIndex lazily builds (once) and returns the columnar index.
func (s *Study) bitIndex() *bitIndex {
	s.bitOnce.Do(func() { s.bidx = s.buildBitIndex() })
	return s.bidx
}

// alignedShards is runShards with shard boundaries aligned to 64-record
// multiples, so concurrent builders never touch the same bitset word.
func alignedShards(workers, n int, body func(lo, hi int)) {
	workers = capWorkers(workers)
	if workers <= 1 || n < minParallelItems {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	chunk = (chunk + 63) &^ 63
	done := make(chan struct{})
	shards := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		shards++
		go func(lo, hi int) {
			body(lo, hi)
			done <- struct{}{}
		}(lo, hi)
	}
	for i := 0; i < shards; i++ {
		<-done
	}
}

func (s *Study) buildBitIndex() *bitIndex {
	n := len(s.records)
	idx := &bitIndex{
		n:        n,
		words:    (n + 63) / 64,
		popcnt:   make([]uint16, n),
		products: make([]uint16, n),
	}
	idx.distro = make([][]uint64, s.nd)
	for d := range idx.distro {
		idx.distro[d] = make([]uint64, idx.words)
	}
	for c := range idx.class {
		idx.class[c] = make([]uint64, idx.words)
	}
	idx.remote = make([]uint64, idx.words)

	alignedShards(s.workers(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := &s.records[i]
			w, b := i>>6, uint64(1)<<uint(i&63)
			r.mask.ForEachBit(func(bi int) { idx.distro[bi][w] |= b })
			if ci := classIdx(r.class); ci >= 0 {
				idx.class[ci][w] |= b
			}
			if r.remote {
				idx.remote[w] |= b
			}
			idx.popcnt[i] = clampU16(r.nos)
			idx.products[i] = clampU16(r.products)
		}
	})

	// Profile postings: Fat = everything, Thin = not Application,
	// IsolatedThin = Thin ∧ remote. The tail bits beyond n stay zero.
	fat := make([]uint64, idx.words)
	thin := make([]uint64, idx.words)
	its := make([]uint64, idx.words)
	for i := range fat {
		fat[i] = ^uint64(0)
	}
	if idx.words > 0 && n&63 != 0 {
		fat[idx.words-1] = (uint64(1) << uint(n&63)) - 1
	}
	app := idx.class[classIdx(classify.ClassApplication)]
	for i := range thin {
		thin[i] = fat[i] &^ app[i]
		its[i] = thin[i] & idx.remote[i]
	}
	idx.profile[FatServer-1] = fat
	idx.profile[ThinServer-1] = thin
	idx.profile[IsolatedThinServer-1] = its

	// Year segment offsets over the year-sorted records.
	if n > 0 {
		idx.minYear = s.records[0].year
		idx.maxYear = s.records[n-1].year
		span := idx.maxYear - idx.minYear
		idx.yearStart = make([]int, span+2)
		pos := 0
		for k := 0; k <= span; k++ {
			for pos < n && s.records[pos].year < idx.minYear+k {
				pos++
			}
			idx.yearStart[k] = pos
		}
		idx.yearStart[span+1] = n
	}

	// Compact multi-record pair postings for the pair-family queries.
	nMulti, nPairRefs := 0, 0
	for i := range s.records {
		if k := s.records[i].nos; k >= 2 {
			nMulti++
			nPairRefs += k * (k - 1) / 2
		}
	}
	idx.multi = make([]int32, 0, nMulti)
	idx.multiFlags = make([]uint8, 0, nMulti)
	idx.multiPairOff = make([]int32, 1, nMulti+1)
	idx.multiPairs = make([]int32, 0, nPairRefs)
	bs := make([]int, s.nd)
	for i := range s.records {
		r := &s.records[i]
		if r.nos < 2 {
			continue
		}
		idx.multi = append(idx.multi, int32(i))
		flags := uint8(classIdx(r.class) + 1)
		if r.remote {
			flags |= multiRemoteFlag
		}
		idx.multiFlags = append(idx.multiFlags, flags)
		nb := r.mask.Bits(bs)
		for x := 0; x < nb; x++ {
			row := bs[x] * s.nd
			for y := x + 1; y < nb; y++ {
				idx.multiPairs = append(idx.multiPairs, int32(s.pairAt[row+bs[y]]))
			}
		}
		idx.multiPairOff = append(idx.multiPairOff, int32(len(idx.multiPairs)))
	}

	// Invalid-record postings for Table I.
	ni := len(s.invalid)
	idx.invWords = (ni + 63) / 64
	idx.invDistro = make([][]uint64, s.nd)
	for d := range idx.invDistro {
		idx.invDistro[d] = make([]uint64, idx.invWords)
	}
	for v := range idx.invValidity {
		idx.invValidity[v] = make([]uint64, idx.invWords)
	}
	alignedShards(s.workers(), ni, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := &s.invalid[i]
			w, b := i>>6, uint64(1)<<uint(i&63)
			r.mask.ForEachBit(func(bi int) { idx.invDistro[bi][w] |= b })
			idx.invValidity[validityIdx(r.validity)][w] |= b
		}
	})
	return idx
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

// popcountRange counts set bits of a within bit positions [lo, hi).
func popcountRange(a []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	head := ^uint64(0) << uint(lo&63)
	tail := ^uint64(0) >> uint(63-((hi-1)&63))
	if loW == hiW {
		return bits.OnesCount64(a[loW] & head & tail)
	}
	n := bits.OnesCount64(a[loW] & head)
	for i := loW + 1; i < hiW; i++ {
		n += bits.OnesCount64(a[i])
	}
	n += bits.OnesCount64(a[hiW] & tail)
	return n
}

// andPopcountRange counts bits of a∧b within bit positions [lo, hi).
func andPopcountRange(a, b []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	head := ^uint64(0) << uint(lo&63)
	tail := ^uint64(0) >> uint(63-((hi-1)&63))
	if loW == hiW {
		return bits.OnesCount64(a[loW] & b[loW] & head & tail)
	}
	n := bits.OnesCount64(a[loW] & b[loW] & head)
	for i := loW + 1; i < hiW; i++ {
		n += bits.OnesCount64(a[i] & b[i])
	}
	n += bits.OnesCount64(a[hiW] & b[hiW] & tail)
	return n
}

// --- range helpers -------------------------------------------------------

// cutIndex returns the first record index with year > y (records are
// year-sorted), i.e. the exclusive end of the history side of a split.
func (idx *bitIndex) cutIndex(y int) int {
	switch {
	case idx.n == 0 || y < idx.minYear:
		return 0
	case y >= idx.maxYear:
		return idx.n
	default:
		return idx.yearStart[y-idx.minYear+1]
	}
}

// recRange maps a selection window onto the [lo, hi) record range.
func (idx *bitIndex) recRange(w SelectionWindow) (lo, hi int) {
	if idx.n == 0 {
		return 0, 0
	}
	lo = 0
	if w.FromYear != 0 {
		switch {
		case w.FromYear > idx.maxYear:
			return 0, 0
		case w.FromYear > idx.minYear:
			lo = idx.yearStart[w.FromYear-idx.minYear]
		}
	}
	hi = idx.n
	if w.ToYear != 0 {
		hi = idx.cutIndex(w.ToYear)
	}
	return lo, hi
}

// --- table queries -------------------------------------------------------

func (s *Study) validityBitset() *validityResult {
	idx := s.bitIndex()
	res := &validityResult{rows: make([]ValidityRow, s.nd)}
	runShards(s.workers(), s.nd, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			res.rows[d] = ValidityRow{
				Distro:      s.distros[d],
				Valid:       popcountWords(idx.distro[d]),
				Unknown:     andPopcount(idx.invDistro[d], idx.invValidity[0]),
				Unspecified: andPopcount(idx.invDistro[d], idx.invValidity[1]),
				Disputed:    andPopcount(idx.invDistro[d], idx.invValidity[2]),
			}
		}
	})
	res.distinct = ValidityRow{
		Valid:       idx.n,
		Unknown:     popcountWords(idx.invValidity[0]),
		Unspecified: popcountWords(idx.invValidity[1]),
		Disputed:    popcountWords(idx.invValidity[2]),
	}
	return res
}

func (s *Study) classBitset() *classResult {
	idx := s.bitIndex()
	res := &classResult{rows: make([]ClassRow, s.nd)}
	runShards(s.workers(), s.nd, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			res.rows[d] = ClassRow{
				Distro:  s.distros[d],
				Driver:  andPopcount(idx.distro[d], idx.class[0]),
				Kernel:  andPopcount(idx.distro[d], idx.class[1]),
				SysSoft: andPopcount(idx.distro[d], idx.class[2]),
				App:     andPopcount(idx.distro[d], idx.class[3]),
			}
		}
	})
	var counts [4]int
	for c := range idx.class {
		counts[c] = popcountWords(idx.class[c])
	}
	res.shares = ClassShares(counts, idx.n)
	return res
}

func (s *Study) totalsBitset(profile Profile) []int {
	idx := s.bitIndex()
	prof := idx.profile[profile-1]
	out := make([]int, s.nd)
	runShards(s.workers(), s.nd, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			out[d] = andPopcount(idx.distro[d], prof)
		}
	})
	return out
}

// multiRemoteFlag marks remotely exploitable records in multiFlags.
const multiRemoteFlag = 1 << 3

// multiClassOf extracts the classIdx+1 component of a flags byte.
func multiClassOf(f uint8) uint8 { return f & 7 }

// multiMatchesITS mirrors record.matches(IsolatedThinServer) on a flags
// byte: not Application-class, and remote.
func multiMatchesITS(f uint8) bool {
	return multiClassOf(f) != uint8(classIdx(classify.ClassApplication)+1) && f&multiRemoteFlag != 0
}

// multiPos returns the position of the first multi-record whose record
// index is >= recIdx (the multi column is ascending).
func (idx *bitIndex) multiPos(recIdx int) int {
	return sort.Search(len(idx.multi), func(i int) bool { return int(idx.multi[i]) >= recIdx })
}

// pairsAllResult memoizes the three profiles' pair matrices, produced by
// a single pass over the multi columns.
type pairsAllResult struct {
	counts [3][]int // indexed Profile-1
}

// pairsAllBitset computes all three profile pair matrices in one sweep
// of the pair-posting columns: each record's materialized pair indices
// are bumped into the Fat row always, the Thin row when the record is
// not Application-class, and the IsolatedThin row when it is
// additionally remote. This streams O(multi × C(k,2)) sequential work —
// the engine's answer to the all-pairs tables, exploiting that most
// records touch few distros.
func (s *Study) pairsAllBitset() *pairsAllResult {
	return s.cached(ckey{q: qPairsAll}, func() any {
		idx := s.bitIndex()
		appFlag := uint8(classIdx(classify.ClassApplication) + 1)
		return reduceRangeShards(s.workers(), len(idx.multi),
			func() *pairsAllResult {
				r := &pairsAllResult{}
				for i := range r.counts {
					r.counts[i] = make([]int, len(s.pairs))
				}
				return r
			},
			func(a *pairsAllResult, lo, hi int) {
				fat := a.counts[FatServer-1]
				thin := a.counts[ThinServer-1]
				its := a.counts[IsolatedThinServer-1]
				for pos := lo; pos < hi; pos++ {
					f := idx.multiFlags[pos]
					isThin := multiClassOf(f) != appFlag
					isITS := isThin && f&multiRemoteFlag != 0
					for _, pi := range idx.multiPairs[idx.multiPairOff[pos]:idx.multiPairOff[pos+1]] {
						fat[pi]++
						if isThin {
							thin[pi]++
						}
						if isITS {
							its[pi]++
						}
					}
				}
			},
			func(dst, src *pairsAllResult) {
				for i := range dst.counts {
					mergeIntSlice(dst.counts[i], src.counts[i])
				}
			})
	}).(*pairsAllResult)
}

func (s *Study) pairCountsBitset(profile Profile) []int {
	return s.pairsAllBitset().counts[profile-1]
}

func (s *Study) partsBitset() []PartCounts {
	idx := s.bitIndex()
	return reduceRangeShards(s.workers(), len(idx.multi),
		func() []PartCounts { return make([]PartCounts, len(s.pairs)) },
		func(a []PartCounts, lo, hi int) {
			for pos := lo; pos < hi; pos++ {
				f := idx.multiFlags[pos]
				if !multiMatchesITS(f) {
					continue
				}
				cls := multiClassOf(f)
				for _, pi := range idx.multiPairs[idx.multiPairOff[pos]:idx.multiPairOff[pos+1]] {
					switch cls {
					case 1:
						a[pi].Driver++
					case 2:
						a[pi].Kernel++
					case 3:
						a[pi].SysSoft++
					}
				}
			}
		},
		func(dst, src []PartCounts) {
			for i := range dst {
				dst[i].Driver += src[i].Driver
				dst[i].Kernel += src[i].Kernel
				dst[i].SysSoft += src[i].SysSoft
			}
		})
}

func (s *Study) periodsBitset(splitYear int) []PeriodCounts {
	idx := s.bitIndex()
	cutPos := idx.multiPos(idx.cutIndex(splitYear))
	return reduceRangeShards(s.workers(), len(idx.multi),
		func() []PeriodCounts { return make([]PeriodCounts, len(s.pairs)) },
		func(a []PeriodCounts, lo, hi int) {
			for pos := lo; pos < hi; pos++ {
				if !multiMatchesITS(idx.multiFlags[pos]) {
					continue
				}
				history := pos < cutPos
				for _, pi := range idx.multiPairs[idx.multiPairOff[pos]:idx.multiPairOff[pos+1]] {
					if history {
						a[pi].History++
					} else {
						a[pi].Observed++
					}
				}
			}
		},
		func(dst, src []PeriodCounts) {
			for i := range dst {
				dst[i].History += src[i].History
				dst[i].Observed += src[i].Observed
			}
		})
}

func (s *Study) temporalBitset(distroIdx int) map[int]int {
	idx := s.bitIndex()
	out := make(map[int]int)
	if idx.n == 0 {
		return out
	}
	postings := idx.distro[distroIdx]
	span := idx.maxYear - idx.minYear
	for k := 0; k <= span; k++ {
		if c := popcountRange(postings, idx.yearStart[k], idx.yearStart[k+1]); c > 0 {
			out[idx.minYear+k] = c
		}
	}
	return out
}

// kwiseHistogram tallies, per profile, how many records carry each value
// of the per-record byte column (distro count or product count), by
// walking the set bits of the profile bitset — the column and the
// postings together are a few hundred KB at 100k entries, so this runs
// at memory speed.
func (s *Study) kwiseHistogram(profile Profile, column []uint16) []int {
	idx := s.bitIndex()
	prof := idx.profile[profile-1]
	type hist struct{ counts []int }
	merged := reduceRangeShards(s.workers(), idx.words, func() *hist { return &hist{} },
		func(h *hist, loW, hiW int) {
			for wi := loW; wi < hiW; wi++ {
				w := prof[wi]
				base := wi << 6
				for ; w != 0; w &= w - 1 {
					v := int(column[base+bits.TrailingZeros64(w)])
					for len(h.counts) <= v {
						h.counts = append(h.counts, 0)
					}
					h.counts[v]++
				}
			}
		},
		func(dst, src *hist) {
			for len(dst.counts) < len(src.counts) {
				dst.counts = append(dst.counts, 0)
			}
			for i, c := range src.counts {
				dst.counts[i] += c
			}
		})
	return merged.counts
}

// reduceRangeShards is reduceShards over index ranges instead of record slices.
func reduceRangeShards[A any](workers, n int, newAgg func() A, body func(agg A, lo, hi int), merge func(dst, src A)) A {
	workers = capWorkers(workers)
	dst := newAgg()
	if workers <= 1 || n < minParallelItems {
		body(dst, 0, n)
		return dst
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	nShards := (n + chunk - 1) / chunk
	parts := make([]A, nShards)
	done := make(chan int, nShards)
	for i := 0; i < nShards; i++ {
		go func(i int) {
			lo := i * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			a := newAgg()
			body(a, lo, hi)
			parts[i] = a
			done <- i
		}(i)
	}
	for i := 0; i < nShards; i++ {
		<-done
	}
	for i := 0; i < nShards; i++ {
		merge(dst, parts[i])
	}
	return dst
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
	return atLeastMap(s.kwiseHistogram(profile, s.bitIndex().popcnt))
}

func (s *Study) kwiseProductsBitset(profile Profile) map[int]int {
	return atLeastMap(s.kwiseHistogram(profile, s.bitIndex().products))
}

func (s *Study) windowPairsBitset(win SelectionWindow) []int {
	idx := s.bitIndex()
	lo, hi := idx.recRange(win)
	loPos, hiPos := idx.multiPos(lo), idx.multiPos(hi)
	return reduceRangeShards(s.workers(), hiPos-loPos,
		func() []int { return make([]int, len(s.pairs)) },
		func(a []int, shLo, shHi int) {
			for pos := loPos + shLo; pos < loPos+shHi; pos++ {
				if !multiMatchesITS(idx.multiFlags[pos]) {
					continue
				}
				for _, pi := range idx.multiPairs[idx.multiPairOff[pos]:idx.multiPairOff[pos+1]] {
					a[pi]++
				}
			}
		},
		mergeIntSlice)
}

func (s *Study) windowTotalsBitset(w SelectionWindow) []int {
	idx := s.bitIndex()
	prof := idx.profile[IsolatedThinServer-1]
	lo, hi := idx.recRange(w)
	out := make([]int, s.nd)
	runShards(s.workers(), s.nd, func(dlo, dhi int) {
		for d := dlo; d < dhi; d++ {
			out[d] = andPopcountRange(idx.distro[d], prof, lo, hi)
		}
	})
	return out
}

// --- release postings (Table VI) -----------------------------------------

type releaseKey struct {
	d       osmap.Distro
	version string
}

// releaseBits builds (once) the posting bitset of valid records whose
// CPE list names the (distro, version) release.
func (s *Study) releaseBits(d osmap.Distro, version string) []uint64 {
	key := releaseKey{d, version}
	s.relMu.Lock()
	if s.relBits == nil {
		s.relBits = make(map[releaseKey][]uint64)
	}
	bs, ok := s.relBits[key]
	s.relMu.Unlock()
	if ok {
		return bs
	}
	idx := s.bitIndex()
	rc := &s.relCols
	bs = make([]uint64, idx.words)
	alignedShards(s.workers(), idx.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if rc.affectsRelease(i, d, version) {
				bs[i>>6] |= 1 << uint(i&63)
			}
		}
	})
	s.relMu.Lock()
	if prev, ok := s.relBits[key]; ok {
		bs = prev // lost a benign race; keep the first build
	} else {
		s.relBits[key] = bs
	}
	s.relMu.Unlock()
	return bs
}

// --- most-shared order ---------------------------------------------------

// mostSharedOrder computes (once) the record indices sorted by product
// count descending, ties by CVE ID ascending, via a bucket sort: the
// histogram pass shards across the worker pool and only the per-bucket
// ID sorts pay O(log) costs, so the order materializes in near-linear
// time even at 100k entries.
func (s *Study) mostSharedOrder() []int {
	return s.cached(ckey{q: qMostShared}, func() any {
		n := len(s.records)
		maxP := reduceShards(s.workers(), s.records,
			func() *int { return new(int) },
			func(a *int, shard []record) {
				for i := range shard {
					if shard[i].products > *a {
						*a = shard[i].products
					}
				}
			},
			func(dst, src *int) {
				if *src > *dst {
					*dst = *src
				}
			})
		buckets := make([][]int, *maxP+1)
		for i := 0; i < n; i++ {
			p := s.records[i].products
			buckets[p] = append(buckets[p], i)
		}
		runShards(s.workers(), len(buckets), func(lo, hi int) {
			for b := lo; b < hi; b++ {
				ids := buckets[b]
				sort.Slice(ids, func(x, y int) bool {
					return s.records[ids[x]].id.Less(s.records[ids[y]].id)
				})
			}
		})
		out := make([]int, 0, n)
		for p := *maxP; p >= 0; p-- {
			out = append(out, buckets[p]...)
		}
		return out
	}).([]int)
}
