package core

import (
	"sort"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
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
// selection, release overlap and attack result — to a cold NewStudy
// build over "the base's entry sequence with superseded identifiers
// removed, followed by the delta entries in arrival order", at any
// batch split and worker count. (Both paths append records in input
// order and finish with the same stable year sort, so they land on the
// identical record layout.)
//
// Memory independence: the finished Study shares no mutable or mapped
// memory with the base. Mask arenas are copied and the release
// reference columns are rebuilt on the heap, so a base study backed by
// an mmap'd snapshot can be closed (or swapped out and dropped) without
// invalidating any derived epoch.
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
	rec  record // zero for deltaSkip
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
// pool, like Study ingestion). The batch slice is not retained. Add
// panics after Finish.
func (b *DeltaBuilder) Add(entries ...*cve.Entry) {
	if b.finished {
		panic("core: DeltaBuilder.Add after Finish")
	}
	s := b.s
	type digested struct {
		rec record
		ok  bool
	}
	arena := make([]uint64, len(entries)*s.maskWords)
	maskAt := func(i int) osmap.Mask {
		return osmap.Mask(arena[i*s.maskWords : (i+1)*s.maskWords : (i+1)*s.maskWords])
	}
	out := make([]digested, len(entries))
	if s.isParallel() && len(entries) >= minParallelItems {
		runShards(s.workers(), len(entries), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rec, ok := s.digest(entries[i], maskAt(i))
				out[i] = digested{rec, ok}
			}
		})
	} else {
		for i, e := range entries {
			rec, ok := s.digest(e, maskAt(i))
			out[i] = digested{rec, ok}
		}
	}
	for i, e := range entries {
		o := deltaOutcome{id: e.ID}
		switch {
		case !out[i].ok:
			o.kind = deltaSkip
		case out[i].rec.validity != classify.Valid:
			o.kind = deltaInvalid
			o.rec = out[i].rec
		default:
			o.kind = deltaValid
			o.rec = out[i].rec
		}
		b.latest[e.ID] = len(b.outcomes)
		b.outcomes = append(b.outcomes, o)
	}
}

// Added reports how many delta entries the builder has digested so far.
func (b *DeltaBuilder) Added() int { return len(b.outcomes) }

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
	superseded := make(map[cve.ID]bool, len(final))
	for _, o := range final {
		superseded[o.id] = true
	}

	var zeroID cve.ID
	keepRecs := make([]int, 0, len(base.records))
	for j := range base.records {
		if !superseded[base.records[j].id] {
			keepRecs = append(keepRecs, j)
		}
	}
	keepInv := make([]int, 0, len(base.invalid))
	for j := range base.invalid {
		// Snapshot-adopted invalid records carry the zero ID; only
		// identified records can be superseded.
		if base.invalid[j].id == zeroID || !superseded[base.invalid[j].id] {
			keepInv = append(keepInv, j)
		}
	}
	nValid, nInv, nSkip := 0, 0, 0
	for _, o := range final {
		switch o.kind {
		case deltaValid:
			nValid++
		case deltaInvalid:
			nInv++
		default:
			nSkip++
		}
	}

	// Copy every retained mask into fresh contiguous arenas: the base's
	// arenas may alias an mmap'd snapshot whose lifetime the derived
	// study must not depend on.
	mw := s.maskWords
	recs := make([]record, 0, len(keepRecs)+nValid)
	relSrc := make([]int32, 0, len(keepRecs)+nValid)
	arena := make([]uint64, (len(keepRecs)+nValid)*mw)
	ai := 0
	takeMask := func(src osmap.Mask) osmap.Mask {
		m := osmap.Mask(arena[ai*mw : (ai+1)*mw : (ai+1)*mw])
		copy(m, src)
		ai++
		return m
	}
	for _, j := range keepRecs {
		r := base.records[j]
		r.mask = takeMask(r.mask)
		recs = append(recs, r)
		relSrc = append(relSrc, int32(j))
	}
	for _, o := range final {
		if o.kind != deltaValid {
			continue
		}
		r := o.rec
		r.mask = takeMask(r.mask)
		recs = append(recs, r)
		relSrc = append(relSrc, -1)
	}

	inv := make([]record, 0, len(keepInv)+nInv)
	invArena := make([]uint64, (len(keepInv)+nInv)*mw)
	ii := 0
	takeInvMask := func(src osmap.Mask) osmap.Mask {
		m := osmap.Mask(invArena[ii*mw : (ii+1)*mw : (ii+1)*mw])
		copy(m, src)
		ii++
		return m
	}
	for _, j := range keepInv {
		r := base.invalid[j]
		r.mask = takeInvMask(r.mask)
		inv = append(inv, r)
	}
	for _, o := range final {
		if o.kind != deltaInvalid {
			continue
		}
		r := o.rec
		r.mask = takeInvMask(r.mask)
		inv = append(inv, r)
	}

	// The stable year sort runs through an explicit permutation so the
	// per-record release-reference provenance co-sorts with the records.
	perm := make([]int, len(recs))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool { return recs[perm[x]].year < recs[perm[y]].year })
	sorted := make([]record, len(recs))
	sortedSrc := make([]int32, len(recs))
	for k, i := range perm {
		sorted[k] = recs[i]
		sortedSrc[k] = relSrc[i]
	}

	s.records = sorted
	s.invalid = inv
	s.skipped = base.skipped + nSkip
	b.buildRelColumns(sortedSrc)
	return s
}

// buildRelColumns eagerly merges the release-reference columns: kept
// base records copy their refs out of the base's columns (remapping
// version indices into a fresh table), delta records derive theirs from
// the retained entry exactly as the lazy relColumns build does. Eager
// because the lazy path walks record.entry.Products — nil for base
// records adopted from a snapshot — and because the merged table must
// be indexed by the *new* study's sorted record order. src[i] is the
// base record index behind sorted record i, or -1 for a delta record.
func (b *DeltaBuilder) buildRelColumns(src []int32) {
	s, base := b.s, b.base
	baseRC := base.relColumns()
	rc := relColumns{
		off:      make([]int32, len(s.records)+1),
		refs:     []uint64{},
		versions: []string{},
	}
	vidx := make(map[string]uint32)
	intern := func(v string) uint32 {
		vi, ok := vidx[v]
		if !ok {
			vi = uint32(len(rc.versions))
			vidx[v] = vi
			rc.versions = append(rc.versions, v)
		}
		return vi
	}
	for i := range s.records {
		start := len(rc.refs)
		if j := src[i]; j >= 0 {
			// Base refs are already per-record deduped; remapping the
			// version index is injective, so a plain copy preserves that.
			for _, ref := range baseRC.refs[baseRC.off[j]:baseRC.off[j+1]] {
				v := intern(baseRC.versions[uint32(ref)])
				rc.refs = append(rc.refs, ref&^uint64(^uint32(0))|uint64(v))
			}
		} else {
			for _, p := range s.records[i].entry.Products {
				d, ok := s.registry.Cluster(p)
				if !ok {
					continue
				}
				packed := uint64(d)<<32 | uint64(intern(p.Version))
				dup := false
				for _, prev := range rc.refs[start:] {
					if prev == packed {
						dup = true
						break
					}
				}
				if !dup {
					rc.refs = append(rc.refs, packed)
				}
			}
		}
		rc.off[i+1] = int32(len(rc.refs))
	}
	s.relOnce.Do(func() { s.relCols = rc })
}

// SelfCheck deep-validates the study's internal consistency by round
// tripping it through the exported column form and the exhaustive
// validateColumns checks the snapshot loader trusts hostile files to —
// lengths, offsets, popcounts, posting shapes, year segmentation. As a
// side effect it forces the bitset index and the release-reference
// columns, so a freshly built epoch is query-warm before it is swapped
// in.
func (s *Study) SelfCheck() error {
	return validateColumns(s.ExportColumns(), s)
}
