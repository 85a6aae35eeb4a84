package core

import (
	"fmt"
	"math/bits"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// This file splits column construction from Study wiring: ExportColumns
// flattens a digested Study into plain columnar slices, and FromColumns
// materializes a Study by adopting such columns — the warm-start path of
// internal/snapshot. Adopted columns are owned by the caller (typically
// an mmap'd read-only file region) and are never written by the Study;
// everything the engine would otherwise mutate in place (profile
// postings, release posting bitsets, memo caches) is derived into fresh
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

	// Valid-record columns, in the finalized (year-sorted) order.
	// IDs packs cve.ID as Year<<32 | Seq; Flags packs the class index +1
	// in bits 0-2 (0 = unclassified) and the remote flag in bit 3;
	// Masks is one contiguous arena of len(IDs)*MaskWords words.
	IDs      []uint64
	Years    []int32
	Flags    []uint8
	Products []uint16
	Popcnt   []uint16
	Masks    []uint64

	// Release references (Table VI), see relColumns.
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

	// Year segmentation (empty when there are no valid records).
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

// ExportColumns flattens the Study into freshly allocated columns —
// the save path of internal/snapshot. It forces the bitset index, so the
// persisted form warm-starts with it ready.
func (s *Study) ExportColumns() *Columns {
	idx := s.bitIndex()
	rc := &s.relCols
	n, ni := len(s.records), len(s.invalid)
	c := &Columns{
		NumDistros: s.nd,
		MaskWords:  s.maskWords,
		Skipped:    s.skipped,

		IDs:      make([]uint64, n),
		Years:    make([]int32, n),
		Flags:    make([]uint8, n),
		Products: append([]uint16(nil), idx.products...),
		Popcnt:   append([]uint16(nil), idx.popcnt...),
		Masks:    make([]uint64, n*s.maskWords),

		RelOff:      append([]int32(nil), rc.off...),
		RelRefs:     append([]uint64(nil), rc.refs...),
		RelVersions: append([]string(nil), rc.versions...),

		InvFlags: make([]uint8, ni),
		InvMasks: make([]uint64, ni*s.maskWords),

		RemotePost: append([]uint64(nil), idx.remote...),

		MinYear: idx.minYear,
		MaxYear: idx.maxYear,

		Multi:        append([]int32(nil), idx.multi...),
		MultiFlags:   append([]uint8(nil), idx.multiFlags...),
		MultiPairOff: append([]int32(nil), idx.multiPairOff...),
		MultiPairs:   append([]int32(nil), idx.multiPairs...),
	}
	if c.RelRefs == nil {
		c.RelRefs = []uint64{}
	}
	for i := range s.records {
		r := &s.records[i]
		c.IDs[i] = uint64(uint32(r.id.Year))<<32 | uint64(uint32(r.id.Seq))
		c.Years[i] = int32(r.year)
		c.Flags[i] = recFlags(r)
		copy(c.Masks[i*s.maskWords:(i+1)*s.maskWords], r.mask)
	}
	for i := range s.invalid {
		r := &s.invalid[i]
		c.InvFlags[i] = uint8(validityIdx(r.validity))
		copy(c.InvMasks[i*s.maskWords:(i+1)*s.maskWords], r.mask)
	}
	c.DistroPost = make([]uint64, 0, s.nd*idx.words)
	for _, post := range idx.distro {
		c.DistroPost = append(c.DistroPost, post...)
	}
	c.ClassPost = make([]uint64, 0, 4*idx.words)
	for _, post := range idx.class {
		c.ClassPost = append(c.ClassPost, post...)
	}
	c.YearStart = make([]int64, len(idx.yearStart))
	for i, v := range idx.yearStart {
		c.YearStart[i] = int64(v)
	}
	c.InvDistroPost = make([]uint64, 0, s.nd*idx.invWords)
	for _, post := range idx.invDistro {
		c.InvDistroPost = append(c.InvDistroPost, post...)
	}
	c.InvValidityPost = make([]uint64, 0, 3*idx.invWords)
	for _, post := range idx.invValidity {
		c.InvValidityPost = append(c.InvValidityPost, post...)
	}
	return c
}

// FromColumns materializes a Study by adopting previously exported
// columns — the second construction path next to digestion. The options
// must reproduce the universe the columns were exported under (the same
// WithRegistry); the column shape is validated against it and every
// offset/index column is bounds-checked, so a Study built from
// checksummed but hostile input fails here instead of panicking inside a
// query. The adopted slices are never written; see Columns.
func FromColumns(c *Columns, opts ...Option) (*Study, error) {
	s := newStudyShell(opts)
	if err := validateColumns(c, s); err != nil {
		return nil, err
	}
	n, ni, mw := len(c.IDs), len(c.InvFlags), s.maskWords

	s.skipped = c.Skipped
	s.records = make([]record, n)
	for i := range s.records {
		f := c.Flags[i]
		s.records[i] = record{
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
	s.invalid = make([]record, ni)
	for i := range s.invalid {
		s.invalid[i] = record{
			mask:     osmap.Mask(c.InvMasks[i*mw : (i+1)*mw : (i+1)*mw]),
			validity: validityFromIdx(int(c.InvFlags[i])),
		}
	}

	words, invWords := c.words(), c.invWords()
	idx := &bitIndex{
		n:            n,
		words:        words,
		remote:       c.RemotePost,
		popcnt:       c.Popcnt,
		products:     c.Products,
		minYear:      c.MinYear,
		maxYear:      c.MaxYear,
		multi:        c.Multi,
		multiFlags:   c.MultiFlags,
		multiPairOff: c.MultiPairOff,
		multiPairs:   c.MultiPairs,
		invWords:     invWords,
	}
	idx.distro = make([][]uint64, s.nd)
	for d := range idx.distro {
		idx.distro[d] = c.DistroPost[d*words : (d+1)*words : (d+1)*words]
	}
	for ci := range idx.class {
		idx.class[ci] = c.ClassPost[ci*words : (ci+1)*words : (ci+1)*words]
	}
	if n > 0 {
		idx.yearStart = make([]int, len(c.YearStart))
		for i, v := range c.YearStart {
			idx.yearStart[i] = int(v)
		}
	}
	// Profile postings derive from the class and remote columns into
	// fresh allocations (the adopted region stays read-only).
	fat := make([]uint64, words)
	thin := make([]uint64, words)
	its := make([]uint64, words)
	for i := range fat {
		fat[i] = ^uint64(0)
	}
	if words > 0 && n&63 != 0 {
		fat[words-1] = (uint64(1) << uint(n&63)) - 1
	}
	app := idx.class[classIdx(classify.ClassApplication)]
	for i := range thin {
		thin[i] = fat[i] &^ app[i]
		its[i] = thin[i] & idx.remote[i]
	}
	idx.profile[FatServer-1] = fat
	idx.profile[ThinServer-1] = thin
	idx.profile[IsolatedThinServer-1] = its
	idx.invDistro = make([][]uint64, s.nd)
	for d := range idx.invDistro {
		idx.invDistro[d] = c.InvDistroPost[d*invWords : (d+1)*invWords : (d+1)*invWords]
	}
	for v := range idx.invValidity {
		idx.invValidity[v] = c.InvValidityPost[v*invWords : (v+1)*invWords : (v+1)*invWords]
	}
	s.bitOnce.Do(func() { s.bidx = idx })
	s.relCols = relColumns{off: c.RelOff, refs: c.RelRefs, versions: c.RelVersions}
	return s, nil
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
	} else if len(c.YearStart) != 0 {
		return fail("yearstart column present for an empty record set")
	}
	for i := range c.IDs {
		if y := int(c.Years[i]); n > 0 && (y < c.MinYear || y > c.MaxYear) {
			return fail("record %d year %d outside [%d, %d]", i, y, c.MinYear, c.MaxYear)
		}
		if got := maskOnes(c.Masks[i*c.MaskWords : (i+1)*c.MaskWords]); got != int(c.Popcnt[i]) {
			return fail("record %d popcount %d disagrees with its mask (%d bits)", i, c.Popcnt[i], got)
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
