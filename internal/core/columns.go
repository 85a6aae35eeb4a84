package core

import (
	"fmt"
	"math/bits"
	"slices"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// This file splits column construction from Study wiring: ExportColumns
// flattens a digested Study's year segments into plain whole-corpus
// columnar slices, and FromColumns materializes a Study by adopting such
// columns as one segment per year — the warm-start path of
// internal/snapshot. Adopted per-record columns are owned by the caller
// (typically an mmap'd read-only file region) and are never written by
// the Study; what a segment needs re-based to its own records (posting
// bitsets, offsets) and everything the engine derives (profile
// postings, release posting bitsets, memo caches) is built into fresh
// heap allocations instead.

// relColumns is the flattened per-record release-reference table the
// Table VI queries match against: for valid record i,
// refs[off[i]:off[i+1]] holds its distinct (distro, CPE version) pairs
// in CPE order (see digest), each packed as uint64(distro)<<32 |
// version-string index.
type relColumns struct {
	off      []int32  // len(records)+1, monotonically non-decreasing
	refs     []uint64 // uint64(distro)<<32 | uint64(version index)
	versions []string // version string table, first seen in record order
}

// affectsRelease reports whether valid record i names the
// (distro, version) release in its CPE list. The identity suite checks
// it against a walk over the source entries (oracle_test.go).
func (rc *relColumns) affectsRelease(i int, d osmap.Distro, version string) bool {
	for _, ref := range rc.refs[rc.off[i]:rc.off[i+1]] {
		if osmap.Distro(ref>>32) == d && rc.versions[uint32(ref)] == version {
			return true
		}
	}
	return false
}

// relRefs decodes record i's release references.
func (rc *relColumns) relRefs(i int) []relRef {
	out := make([]relRef, 0, rc.off[i+1]-rc.off[i])
	for _, ref := range rc.refs[rc.off[i]:rc.off[i+1]] {
		out = append(out, relRef{osmap.Distro(ref >> 32), rc.versions[uint32(ref)]})
	}
	return out
}

// Columns is the complete flattened state of a digested Study: every
// per-record column and every precomputed bitset-engine column, in
// fixed-width little-endian-friendly slices. A Study round-trips through
// (ExportColumns, FromColumns) with byte-identical query results.
//
// Ownership: FromColumns adopts the slices without copying. Callers
// loading them from an mmap'd snapshot must keep the mapping alive for
// the Study's lifetime and must never write through it; the Study treats
// every adopted column as immutable.
type Columns struct {
	// Universe shape, validated against the registry the Study is built
	// with.
	NumDistros int
	MaskWords  int

	// Ingestion counters that are not derivable from the columns.
	Skipped int

	// Valid-record columns, in the finalized order: years ascending,
	// input order within a year.
	// IDs packs cve.ID as Year<<32 | Seq; Flags packs the class index +1
	// in bits 0-2 (0 = unclassified) and the remote flag in bit 3;
	// Masks is one contiguous arena of len(IDs)*MaskWords words.
	IDs      []uint64
	Years    []int32
	Flags    []uint8
	Products []uint16
	Popcnt   []uint16
	Masks    []uint64

	// Release references (Table VI), see relColumns; versions are
	// interned first-seen in record order.
	RelOff      []int32
	RelRefs     []uint64
	RelVersions []string

	// Invalid-record columns: Flags holds the validity index
	// (0 unknown, 1 unspecified, 2 disputed), Masks the arena.
	InvFlags []uint8
	InvMasks []uint64

	// Bitset-engine columns over the valid records. Posting bitsets are
	// concatenated per distro/class: DistroPost is NumDistros runs of
	// words() words, ClassPost four runs, RemotePost one. Profile
	// postings are not persisted — they derive from ClassPost and
	// RemotePost on adoption.
	DistroPost []uint64
	ClassPost  []uint64
	RemotePost []uint64

	// Year segmentation (empty when there are no valid records):
	// YearStart[k] is the first record published in MinYear+k or later,
	// and YearStart[MaxYear-MinYear+1] the record count.
	MinYear, MaxYear int
	YearStart        []int64

	// Compact multi-record pair postings (see bitIndex).
	Multi        []int32
	MultiFlags   []uint8
	MultiPairOff []int32
	MultiPairs   []int32

	// Posting bitsets over the invalid records, concatenated like the
	// valid ones (runs of invWords() words).
	InvDistroPost   []uint64
	InvValidityPost []uint64
}

func (c *Columns) words() int    { return (len(c.IDs) + 63) / 64 }
func (c *Columns) invWords() int { return (len(c.InvFlags) + 63) / 64 }

// recFlags packs a record's class and remote flag exactly like the
// engine's multiFlags column.
func recFlags(r *record) uint8 {
	f := uint8(classIdx(r.class) + 1)
	if r.remote {
		f |= multiRemoteFlag
	}
	return f
}

// classFromIdx inverts classIdx for the packed flag byte (idx -1, i.e.
// flag value 0, is unclassified).
func classFromIdx(idx int) classify.Class {
	switch idx {
	case 0:
		return classify.ClassDriver
	case 1:
		return classify.ClassKernel
	case 2:
		return classify.ClassSysSoft
	case 3:
		return classify.ClassApplication
	default:
		return classify.ClassUnclassified
	}
}

// validityFromIdx inverts validityIdx for the invalid-record flag byte.
func validityFromIdx(idx int) classify.Validity {
	switch idx {
	case 0:
		return classify.Unknown
	case 1:
		return classify.Unspecified
	default:
		return classify.Disputed
	}
}

// ExportColumns flattens the Study into freshly allocated whole-corpus
// columns — the save path of internal/snapshot. The segments
// concatenate in year order, their postings shifted onto one bit range
// and their release versions re-interned first-seen across the corpus,
// so the columns are those of one year-sorted record set.
func (s *Study) ExportColumns() *Columns { return s.exportColumns(s.segs, true) }

// exportColumns flattens the given segments, and the invalid records
// and skip count when withInvalid is set, into columns.
func (s *Study) exportColumns(segs []*segment, withInvalid bool) *Columns {
	mw := s.maskWords
	n, nMulti, nPairRefs, nRefs := 0, 0, 0, 0
	for _, g := range segs {
		n += len(g.recs)
		nMulti += len(g.multiFlags)
		nPairRefs += len(g.multiPairs)
		nRefs += len(g.rel.refs)
	}
	c := &Columns{
		NumDistros: s.nd,
		MaskWords:  mw,

		IDs:      make([]uint64, 0, n),
		Years:    make([]int32, 0, n),
		Flags:    make([]uint8, 0, n),
		Products: make([]uint16, 0, n),
		Popcnt:   make([]uint16, 0, n),
		Masks:    make([]uint64, 0, n*mw),

		RelOff:  make([]int32, 1, n+1),
		RelRefs: make([]uint64, 0, nRefs),

		Multi:        make([]int32, 0, nMulti),
		MultiFlags:   make([]uint8, 0, nMulti),
		MultiPairOff: make([]int32, 1, nMulti+1),
		MultiPairs:   make([]int32, 0, nPairRefs),

		InvFlags: []uint8{},
		InvMasks: []uint64{},
	}
	vidx := make(map[string]uint32)
	for _, g := range segs {
		// remap[v] is the corpus-wide index of the segment's version v,
		// -1 until a reference names it.
		remap := make([]int64, len(g.rel.versions))
		for i := range remap {
			remap[i] = -1
		}
		for i := range g.recs {
			r := &g.recs[i]
			c.IDs = append(c.IDs, uint64(uint32(r.id.Year))<<32|uint64(uint32(r.id.Seq)))
			c.Years = append(c.Years, int32(r.year))
			c.Flags = append(c.Flags, recFlags(r))
			c.Masks = append(c.Masks, r.mask[:mw]...)
			if g.popcnt[i] >= 2 {
				c.Multi = append(c.Multi, int32(len(c.IDs)-1))
			}
			for _, ref := range g.rel.refs[g.rel.off[i]:g.rel.off[i+1]] {
				vi := uint32(ref)
				if remap[vi] < 0 {
					v := g.rel.versions[vi]
					gv, ok := vidx[v]
					if !ok {
						gv = uint32(len(c.RelVersions))
						vidx[v] = gv
						c.RelVersions = append(c.RelVersions, v)
					}
					remap[vi] = int64(gv)
				}
				c.RelRefs = append(c.RelRefs, ref>>32<<32|uint64(remap[vi]))
			}
			c.RelOff = append(c.RelOff, int32(len(c.RelRefs)))
		}
		c.Products = append(c.Products, g.products...)
		c.Popcnt = append(c.Popcnt, g.popcnt...)
		c.MultiFlags = append(c.MultiFlags, g.multiFlags...)
		base := c.MultiPairOff[len(c.MultiPairOff)-1]
		for _, off := range g.multiPairOff[1:] {
			c.MultiPairOff = append(c.MultiPairOff, base+off)
		}
		c.MultiPairs = append(c.MultiPairs, g.multiPairs...)
	}
	// run appends one whole-corpus posting, the segments' postings
	// concatenated, to dst (which ends on a word boundary).
	run := func(dst []uint64, post func(g *segment) []uint64) []uint64 {
		nbits := len(dst) * 64
		for _, g := range segs {
			dst = appendBits(dst, nbits, post(g), len(g.recs))
			nbits += len(g.recs)
		}
		return dst
	}
	words := (n + 63) / 64
	c.DistroPost = make([]uint64, 0, s.nd*words)
	for d := 0; d < s.nd; d++ {
		c.DistroPost = run(c.DistroPost, func(g *segment) []uint64 { return g.distro[d] })
	}
	c.ClassPost = make([]uint64, 0, 4*words)
	for ci := range 4 {
		c.ClassPost = run(c.ClassPost, func(g *segment) []uint64 { return g.class[ci] })
	}
	c.RemotePost = run(make([]uint64, 0, words), func(g *segment) []uint64 { return g.remote })
	if n > 0 {
		c.MinYear, c.MaxYear = segs[0].year, segs[len(segs)-1].year
		c.YearStart = make([]int64, c.MaxYear-c.MinYear+2)
		pos, k := 0, 0
		for y := c.MinYear; y <= c.MaxYear; y++ {
			for segs[k].year < y {
				pos += len(segs[k].recs)
				k++
			}
			c.YearStart[y-c.MinYear] = int64(pos)
		}
		c.YearStart[len(c.YearStart)-1] = int64(n)
	}
	c.InvDistroPost, c.InvValidityPost = []uint64{}, []uint64{}
	if withInvalid {
		c.Skipped = s.skipped
		c.InvFlags = make([]uint8, len(s.invalid))
		c.InvMasks = make([]uint64, 0, len(s.invalid)*mw)
		for i := range s.invalid {
			r := &s.invalid[i]
			c.InvFlags[i] = uint8(validityIdx(r.validity))
			c.InvMasks = append(c.InvMasks, r.mask[:mw]...)
		}
		inv := s.invIndex()
		for _, post := range inv.distro {
			c.InvDistroPost = append(c.InvDistroPost, post...)
		}
		for _, post := range inv.validity {
			c.InvValidityPost = append(c.InvValidityPost, post...)
		}
	}
	return c
}

// FromColumns materializes a Study by adopting previously exported
// columns, one segment per year — the second construction path next to
// digestion. The options must reproduce the universe the columns were
// exported under (the same WithRegistry); the column shape is validated
// against it and every offset/index column is bounds-checked, so a Study
// built from checksummed but hostile input fails here instead of
// panicking inside a query. The adopted slices are never written; see
// Columns.
func FromColumns(c *Columns, opts ...Option) (*Study, error) {
	s := newStudyShell(opts)
	if err := validateColumns(c, s); err != nil {
		return nil, err
	}
	mw, words := s.maskWords, c.words()
	s.skipped = c.Skipped
	s.nValid = len(c.IDs)
	// The adopted segments share the corpus's version table, and its
	// lookup map.
	vidx := make(map[string]uint32, len(c.RelVersions))
	for i, v := range c.RelVersions {
		if _, ok := vidx[v]; !ok {
			vidx[v] = uint32(i)
		}
	}
	// One record arena; each year adopts its range of it.
	recs := make([]record, len(c.IDs))
	for i := range recs {
		f := c.Flags[i]
		recs[i] = record{
			id:       cve.ID{Year: int(c.IDs[i] >> 32), Seq: int(uint32(c.IDs[i]))},
			mask:     osmap.Mask(c.Masks[i*mw : (i+1)*mw : (i+1)*mw]),
			nos:      int(c.Popcnt[i]),
			class:    classFromIdx(int(multiClassOf(f)) - 1),
			remote:   f&multiRemoteFlag != 0,
			year:     int(c.Years[i]),
			validity: classify.Valid,
			products: int(c.Products[i]),
		}
	}
	for k := 0; k+1 < len(c.YearStart); k++ {
		lo, hi := int(c.YearStart[k]), int(c.YearStart[k+1])
		if lo == hi {
			continue
		}
		g := &segment{year: c.MinYear + k, adopt: true, recs: recs[lo:hi:hi]}
		g.popcnt, g.products = c.Popcnt[lo:hi:hi], c.Products[lo:hi:hi]
		// The year's distro, class and remote postings, re-based to its
		// first record, share one arena.
		gw := g.words()
		arena := make([]uint64, (s.nd+5)*gw)
		extract := func(a []uint64) []uint64 {
			out := arena[:gw:gw]
			arena = arena[gw:]
			extractBits(out, a, lo, hi)
			return out
		}
		g.distro = make([][]uint64, s.nd)
		for d := range g.distro {
			g.distro[d] = extract(c.DistroPost[d*words : (d+1)*words])
		}
		for ci := range g.class {
			g.class[ci] = extract(c.ClassPost[ci*words : (ci+1)*words])
		}
		g.remote = extract(c.RemotePost)
		g.deriveProfiles()
		pLo, _ := slices.BinarySearch(c.Multi, int32(lo))
		pHi, _ := slices.BinarySearch(c.Multi, int32(hi))
		g.multiFlags = c.MultiFlags[pLo:pHi:pHi]
		g.multiPairOff = rebase(c.MultiPairOff[pLo : pHi+1])
		g.multiPairs = c.MultiPairs[c.MultiPairOff[pLo]:c.MultiPairOff[pHi]:c.MultiPairOff[pHi]]
		g.rel = relColumns{
			off:      rebase(c.RelOff[lo : hi+1]),
			refs:     c.RelRefs[c.RelOff[lo]:c.RelOff[hi]:c.RelOff[hi]],
			versions: c.RelVersions,
		}
		g.vidx = vidx
		s.segs = append(s.segs, g)
	}
	s.fresh = make([]bool, len(s.segs))
	s.invalid = make([]record, len(c.InvFlags))
	for i := range s.invalid {
		s.invalid[i] = record{
			mask:     osmap.Mask(c.InvMasks[i*mw : (i+1)*mw : (i+1)*mw]),
			validity: validityFromIdx(int(c.InvFlags[i])),
		}
	}
	invWords := c.invWords()
	inv := &invIndex{distro: make([][]uint64, s.nd)}
	for d := range inv.distro {
		inv.distro[d] = c.InvDistroPost[d*invWords : (d+1)*invWords : (d+1)*invWords]
	}
	for v := range inv.validity {
		inv.validity[v] = c.InvValidityPost[v*invWords : (v+1)*invWords : (v+1)*invWords]
	}
	s.invOnce.Do(func() { s.inv = inv })
	return s, nil
}

// rebase returns a copy of an offset column shifted to start at zero.
func rebase(off []int32) []int32 {
	out := make([]int32, len(off))
	for i, v := range off {
		out[i] = v - off[0]
	}
	return out
}

// validateColumns checks every length, offset and index the adopted
// columns are trusted for, against the universe of the target study.
func validateColumns(c *Columns, s *Study) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: columns: "+format, args...)
	}
	if c.NumDistros != s.nd {
		return fail("universe mismatch: columns carry %d distros, registry has %d", c.NumDistros, s.nd)
	}
	if c.MaskWords != s.maskWords {
		return fail("mask width mismatch: columns carry %d words, universe needs %d", c.MaskWords, s.maskWords)
	}
	n, ni := len(c.IDs), len(c.InvFlags)
	for _, ln := range []struct {
		name string
		got  int
		want int
	}{
		{"years", len(c.Years), n},
		{"flags", len(c.Flags), n},
		{"products", len(c.Products), n},
		{"popcnt", len(c.Popcnt), n},
		{"masks", len(c.Masks), n * c.MaskWords},
		{"reloff", len(c.RelOff), n + 1},
		{"invmasks", len(c.InvMasks), ni * c.MaskWords},
		{"distropost", len(c.DistroPost), c.NumDistros * c.words()},
		{"classpost", len(c.ClassPost), 4 * c.words()},
		{"remotepost", len(c.RemotePost), c.words()},
		{"invdistropost", len(c.InvDistroPost), c.NumDistros * c.invWords()},
		{"invvaliditypost", len(c.InvValidityPost), 3 * c.invWords()},
		{"multiflags", len(c.MultiFlags), len(c.Multi)},
		{"multipairoff", len(c.MultiPairOff), len(c.Multi) + 1},
	} {
		if ln.got != ln.want {
			return fail("%s column has %d elements, want %d", ln.name, ln.got, ln.want)
		}
	}
	if n > 0 {
		if c.MinYear > c.MaxYear {
			return fail("year range [%d, %d] inverted", c.MinYear, c.MaxYear)
		}
		span := c.MaxYear - c.MinYear
		if len(c.YearStart) != span+2 {
			return fail("yearstart column has %d elements, want %d", len(c.YearStart), span+2)
		}
		if c.YearStart[0] != 0 {
			return fail("yearstart[0] = %d, want 0", c.YearStart[0])
		}
		prev := int64(0)
		for i, v := range c.YearStart {
			if v < prev || v > int64(n) {
				return fail("yearstart[%d] = %d not monotonic within [0, %d]", i, v, n)
			}
			prev = v
		}
		if c.YearStart[span+1] != int64(n) {
			return fail("yearstart terminator %d != record count %d", c.YearStart[span+1], n)
		}
		// Each year's records are the ones its segment adopts.
		for k := 0; k <= span; k++ {
			for i := c.YearStart[k]; i < c.YearStart[k+1]; i++ {
				if y := int(c.Years[i]); y != c.MinYear+k {
					return fail("record %d year %d inside the %d segment", i, y, c.MinYear+k)
				}
			}
		}
	} else if len(c.YearStart) != 0 {
		return fail("yearstart column present for an empty record set")
	}
	nMulti := 0 // records affecting two or more distros
	for i := range c.IDs {
		if got := maskOnes(c.Masks[i*c.MaskWords : (i+1)*c.MaskWords]); got != int(c.Popcnt[i]) {
			return fail("record %d popcount %d disagrees with its mask (%d bits)", i, c.Popcnt[i], got)
		}
		if c.Popcnt[i] >= 2 {
			nMulti++
		}
	}
	if c.RelOff[0] != 0 {
		return fail("reloff[0] = %d, want 0", c.RelOff[0])
	}
	for i := 1; i < len(c.RelOff); i++ {
		if c.RelOff[i] < c.RelOff[i-1] || int(c.RelOff[i]) > len(c.RelRefs) {
			return fail("reloff[%d] = %d not monotonic within [0, %d]", i, c.RelOff[i], len(c.RelRefs))
		}
	}
	if int(c.RelOff[n]) != len(c.RelRefs) {
		return fail("reloff terminator %d != release ref count %d", c.RelOff[n], len(c.RelRefs))
	}
	for i, ref := range c.RelRefs {
		if int(uint32(ref)) >= len(c.RelVersions) {
			return fail("release ref %d names version %d of %d", i, uint32(ref), len(c.RelVersions))
		}
	}
	for i, f := range c.InvFlags {
		if f > 2 {
			return fail("invalid record %d validity flag %d out of range", i, f)
		}
	}
	if len(c.MultiPairOff) > 0 {
		if c.MultiPairOff[0] != 0 {
			return fail("multipairoff[0] = %d, want 0", c.MultiPairOff[0])
		}
		for i := 1; i < len(c.MultiPairOff); i++ {
			if c.MultiPairOff[i] < c.MultiPairOff[i-1] || int(c.MultiPairOff[i]) > len(c.MultiPairs) {
				return fail("multipairoff[%d] = %d not monotonic within [0, %d]", i, c.MultiPairOff[i], len(c.MultiPairs))
			}
		}
		if int(c.MultiPairOff[len(c.Multi)]) != len(c.MultiPairs) {
			return fail("multipairoff terminator %d != pair ref count %d", c.MultiPairOff[len(c.Multi)], len(c.MultiPairs))
		}
	}
	prevRec := int32(-1)
	for i, rec := range c.Multi {
		if rec <= prevRec || int(rec) >= n {
			return fail("multi[%d] = %d not ascending within [0, %d)", i, rec, n)
		}
		prevRec = rec
	}
	// The pair postings hold exactly the records affecting two or more
	// distros (multi is ascending, so as many distinct ones as there
	// are), each with its own flags and C(k,2) pair indices.
	if len(c.Multi) != nMulti {
		return fail("multi holds %d records, %d affect two or more distros", len(c.Multi), nMulti)
	}
	for j, i := range c.Multi {
		k := int(c.Popcnt[i])
		if k < 2 {
			return fail("multi[%d] = %d names a record affecting %d distros", j, i, k)
		}
		if c.MultiFlags[j] != c.Flags[i] {
			return fail("multiflags[%d] = %d disagrees with record %d's flags %d", j, c.MultiFlags[j], i, c.Flags[i])
		}
		if got := int(c.MultiPairOff[j+1] - c.MultiPairOff[j]); got != k*(k-1)/2 {
			return fail("record %d has %d pair postings, want %d", i, got, k*(k-1)/2)
		}
	}
	nPairs := len(s.pairs)
	for i, p := range c.MultiPairs {
		if p < 0 || int(p) >= nPairs {
			return fail("multipairs[%d] = %d names pair %d of %d", i, p, p, nPairs)
		}
	}
	return nil
}

func maskOnes(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}
