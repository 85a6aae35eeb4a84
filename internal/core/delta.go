package core

import (
	"fmt"
	"slices"
	"sort"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
)

// DeltaBuilder derives a new Study from an existing one plus a batch of
// delta entries — the ingestion half of live corpus epochs. NVD's
// "modified" feeds republish entries by CVE identifier, so the delta
// semantics are last-writer-wins per ID: every base record (valid or
// invalid) whose identifier reappears in the delta is dropped and the
// delta's digest of that entry takes its place, whatever its new
// outcome (valid, invalid, or skipped). Entries with identifiers the
// base has never seen simply append.
//
// Identity guarantee: the finished Study is identical — every table,
// selection, release overlap and attack result, and its exported
// columns — to a cold NewStudy build over "the base's entry sequence
// with superseded identifiers removed, followed by the delta entries in
// arrival order", at any batch split and worker count. (A year's
// segment holds its records in input order either way, and the invalid
// list keeps the base's survivors in base order before the delta's.)
//
// Cost: Finish rebuilds only the year segments that lose a superseded
// record or gain a delta record, and shares every other segment of the
// base by pointer, memoized raw counts included, so a reload costs what
// its delta's years cost (the first delta over a snapshot-booted base
// rebuilds every year once; see Memory). Supersession searches each
// base segment's memoized ID order once per delta identifier; it never
// walks the records of a year the delta does not touch.
//
// Memory: the finished Study shares with its base only immutable heap
// segments. Rebuilt segments and the invalid list copy every mask into
// fresh arenas, and a base segment adopted from columns (an mmap'd
// snapshot) is never shared: the first delta rebuilds it like a touched
// year, so a snapshot-booted base can be closed (or swapped out and
// dropped) without invalidating any derived epoch.
//
// Known accounting edges, both inherent to what the base retains:
// snapshot-adopted invalid records carry no identifier (the zero ID)
// and can never be superseded, and base *skipped* entries are counted
// but not identified — a delta that republishes a formerly skipped
// identifier appends its record without decrementing the old skip
// count. Both affect only the Table I removed/skipped counters, never
// the valid-record analyses.
type DeltaBuilder struct {
	base     *Study
	s        *Study
	finished bool

	// outcomes records every delta entry's digest in arrival order;
	// latest maps each identifier to its last occurrence, so re-adding
	// an ID within one delta set also resolves last-writer-wins.
	outcomes []deltaOutcome
	latest   map[cve.ID]int
}

// The three digest outcomes of one delta entry.
const (
	deltaValid int8 = iota
	deltaInvalid
	deltaSkip
)

type deltaOutcome struct {
	id   cve.ID
	kind int8
	rec  record   // zero for deltaSkip
	refs []relRef // release references of a deltaValid record
}

// NewDeltaBuilder starts an incremental delta build over base. The new
// study inherits the base's registry, classifier and worker count; the
// base itself is never mutated and keeps answering queries while the
// delta digests.
func NewDeltaBuilder(base *Study) *DeltaBuilder {
	s := newStudyShell([]Option{WithRegistry(base.registry), WithClassifier(base.classifier)})
	s.workerCount.Store(base.workerCount.Load())
	return &DeltaBuilder{base: base, s: s, latest: make(map[cve.ID]int)}
}

// Add digests one batch of delta entries (concurrently on the worker
// pool, like Builder.Add). Neither the batch slice nor the entries are
// retained. Add panics after Finish.
func (b *DeltaBuilder) Add(entries ...*cve.Entry) {
	if b.finished {
		panic("core: DeltaBuilder.Add after Finish")
	}
	for i, d := range b.s.digestBatch(entries) {
		o := deltaOutcome{id: entries[i].ID}
		switch {
		case !d.ok:
			o.kind = deltaSkip
		case d.rec.validity != classify.Valid:
			o.kind = deltaInvalid
			o.rec = d.rec
		default:
			o.kind = deltaValid
			o.rec, o.refs = d.rec, d.refs
		}
		b.latest[o.id] = len(b.outcomes)
		b.outcomes = append(b.outcomes, o)
	}
}

// Finish resolves the per-ID outcomes against the base and seals the
// merged Study. The builder must not be used afterwards.
func (b *DeltaBuilder) Finish() *Study {
	if b.finished {
		panic("core: DeltaBuilder.Finish called twice")
	}
	b.finished = true
	base, s := b.base, b.s

	// Final per-ID delta outcomes, in arrival order of each identifier's
	// last occurrence.
	final := b.outcomes[:0:0]
	for i, o := range b.outcomes {
		if b.latest[o.id] == i {
			final = append(final, o)
		}
	}
	ids := make([]cve.ID, len(final))
	deltaYears := make(map[int][]*deltaOutcome)
	nInv, nSkip := 0, 0
	for i := range final {
		o := &final[i]
		ids[i] = o.id
		switch o.kind {
		case deltaValid:
			deltaYears[o.rec.year] = append(deltaYears[o.rec.year], o)
		case deltaInvalid:
			nInv++
		default:
			nSkip++
		}
	}
	slices.SortFunc(ids, cve.ID.Compare)

	// dropped[gi] marks the base records of segment gi whose identifier
	// the delta republishes — every one of them, since a cold build can
	// hold an identifier more than once.
	dropped := make([][]bool, len(base.segs))
	eachSegment(s.workers(), len(base.segs), func(gi int) {
		dropped[gi] = base.segs[gi].superseded(ids)
	})

	// One slot per year the base or the delta has, years ascending: an
	// untouched heap segment of the base is shared, a touched or new
	// year rebuilt, and so is an adopted one, which takes it off the
	// caller's columns and has SelfCheck check it.
	years := make([]int, 0, len(base.segs)+len(deltaYears))
	baseAt := make(map[int]int, len(base.segs))
	for gi, g := range base.segs {
		years = append(years, g.year)
		baseAt[g.year] = gi
	}
	for y := range deltaYears {
		if _, ok := baseAt[y]; !ok {
			years = append(years, y)
		}
	}
	slices.Sort(years)
	segs := make([]*segment, len(years))
	fresh := make([]bool, len(years))
	eachSegment(s.workers(), len(years), func(k int) {
		y := years[k]
		var g *segment
		var gone []bool
		if gi, ok := baseAt[y]; ok {
			g, gone = base.segs[gi], dropped[gi]
			if gone == nil && deltaYears[y] == nil && !g.adopt {
				segs[k] = g
				return
			}
		}
		segs[k] = s.rebuildYear(y, g, gone, deltaYears[y])
		fresh[k] = true
	})
	for k, g := range segs {
		if g != nil { // a year the delta empties has no segment
			s.segs = append(s.segs, g)
			s.fresh = append(s.fresh, fresh[k])
			s.nValid += len(g.recs)
		}
	}

	// The invalid list is one flat list, rebuilt per epoch: the base's
	// survivors in base order, then the delta's invalid records.
	// Snapshot-adopted invalid records carry the zero ID; only identified
	// records can be superseded.
	var zeroID cve.ID
	kept := func(r *record) bool {
		_, gone := slices.BinarySearchFunc(ids, r.id, cve.ID.Compare)
		return r.id == zeroID || !gone
	}
	n := nInv
	for i := range base.invalid {
		if kept(&base.invalid[i]) {
			n++
		}
	}
	s.invalid = make([]record, 0, n)
	for i := range base.invalid {
		if kept(&base.invalid[i]) {
			s.invalid = append(s.invalid, base.invalid[i])
		}
	}
	for _, o := range final {
		if o.kind == deltaInvalid {
			s.invalid = append(s.invalid, o.rec)
		}
	}
	ownMasks(s.invalid, s.maskWords)
	s.skipped = base.skipped + nSkip
	return s
}

// superseded marks the segment's records whose identifier is among the
// sorted ids, searching the segment's ID order once per identifier
// inside its ID range; nil when none is.
func (g *segment) superseded(ids []cve.ID) []bool {
	perm, n := g.byID(), len(g.recs)
	idOf := func(k int) cve.ID { return g.recs[idAt(perm, k)].id }
	first, _ := slices.BinarySearchFunc(ids, idOf(0), cve.ID.Compare)
	end, found := slices.BinarySearchFunc(ids, idOf(n-1), cve.ID.Compare)
	if found {
		end++
	}
	var out []bool
	for _, id := range ids[first:end] {
		k := sort.Search(n, func(k int) bool { return idOf(k).Compare(id) >= 0 })
		for ; k < n && idOf(k) == id; k++ {
			if out == nil {
				out = make([]bool, n)
			}
			out[idAt(perm, k)] = true
		}
	}
	return out
}

// rebuildYear seals a touched year: the base segment's records the
// delta does not supersede (base may be nil), then the delta's valid
// records of the year in arrival order. It returns nil for a year left
// with no records.
func (s *Study) rebuildYear(year int, base *segment, gone []bool, delta []*deltaOutcome) *segment {
	n := len(delta)
	if base != nil {
		n += len(base.recs)
		for _, g := range gone {
			if g {
				n--
			}
		}
	}
	if n == 0 {
		return nil
	}
	recs := make([]record, 0, n)
	refs := make([][]relRef, 0, n)
	if base != nil {
		for i := range base.recs {
			if gone == nil || !gone[i] {
				recs = append(recs, base.recs[i])
				refs = append(refs, base.rel.relRefs(i))
			}
		}
	}
	for _, o := range delta {
		recs = append(recs, o.rec)
		refs = append(refs, o.refs)
	}
	return s.newSegment(year, recs, func(i int) []relRef { return refs[i] })
}

// SelfCheck deep-validates what this epoch built. Each fresh segment,
// and the invalid-record list, round-trips through the exported column
// form into the exhaustive validateColumns checks the snapshot loader
// trusts hostile files to — lengths, offsets, popcounts, posting shapes,
// pair postings, year segmentation — and the segments' years must
// ascend without repeats. A segment shared with a base was checked when
// the base built it, and an adopted one when FromColumns validated its
// columns. As a side effect it builds the invalid-record postings, so a
// freshly built epoch is query-warm before it is swapped in.
func (s *Study) SelfCheck() error {
	for i := 1; i < len(s.segs); i++ {
		if s.segs[i].year <= s.segs[i-1].year {
			return fmt.Errorf("core: segments: year %d follows year %d", s.segs[i].year, s.segs[i-1].year)
		}
	}
	for i, fresh := range s.fresh {
		if fresh {
			if err := validateColumns(s.exportColumns(s.segs[i:i+1], false), s); err != nil {
				return err
			}
		}
	}
	return validateColumns(s.exportColumns(nil, true), s)
}
