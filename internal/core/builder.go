package core

import (
	"cmp"
	"slices"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// Builder assembles a Study incrementally — the digestion sink of feed
// ingestion and the one construction path of NewStudy. It consumes
// batches as they decode (each batch digesting on the WithParallelism
// worker pool) and keeps only each entry's digest: the compact record
// the analyses run on and, for a valid entry, its release references.
// No entry is retained, so the full []*cve.Entry slice never has to
// exist at once, and the finished Study holds its records and release
// columns only.
//
// Identity guarantee: for the same entry sequence, any batch split
// produces the identical Study — batches append records in input order
// and Finish seals them with one stable year sort, so every table is
// byte-identical to an all-at-once build.
type Builder struct {
	s        *Study
	recs     []record   // valid records, in input order
	refs     [][]relRef // release references of recs[i]
	finished bool
}

// NewBuilder starts an incremental Study build. The options are those
// of NewStudy (registry, classifier, parallelism).
func NewBuilder(opts ...Option) *Builder {
	return &Builder{s: newStudyShell(opts)}
}

// Add digests one batch of entries. Neither the batch slice nor the
// entries are retained, so callers may reuse the backing array and the
// entries are collectable once Add returns. Add panics after Finish:
// the Study's record set is immutable once queries can run.
func (b *Builder) Add(entries ...*cve.Entry) {
	if b.finished {
		panic("core: Builder.Add after Finish")
	}
	for _, d := range b.s.digestBatch(entries) {
		switch {
		case !d.ok:
			b.s.skipped++
		case d.rec.validity != classify.Valid:
			b.s.invalid = append(b.s.invalid, d.rec)
		default:
			b.recs = append(b.recs, d.rec)
			b.refs = append(b.refs, d.refs)
		}
	}
}

// Finish seals the record set and returns the Study. The Builder must
// not be used afterwards.
func (b *Builder) Finish() *Study {
	if b.finished {
		panic("core: Builder.Finish called twice")
	}
	b.finished = true
	b.s.seal(b.recs, func(i int) []relRef { return b.refs[i] })
	return b.s
}

// relRef is one release reference of a record: a clustered distro and
// the CPE version naming its release.
type relRef struct {
	d       osmap.Distro
	version string
}

// digested is one entry's digest: its record and release references,
// or ok false when the entry touches no clustered distro.
type digested struct {
	rec  record
	refs []relRef
	ok   bool
}

// digestBatch digests a batch of entries in input order — the one
// digestion loop of Builder and DeltaBuilder. With more than one worker
// the digests run concurrently (the registry and classifier are
// read-only after construction), so the outcome is identical at any
// worker count. Masks are carved out of one contiguous arena so the
// index build streams cache-friendly memory.
func (s *Study) digestBatch(entries []*cve.Entry) []digested {
	mw := s.maskWords
	arena := make([]uint64, len(entries)*mw)
	out := make([]digested, len(entries))
	digestRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = s.digest(entries[i], osmap.Mask(arena[i*mw:(i+1)*mw:(i+1)*mw]))
		}
	}
	if s.isParallel() && len(entries) >= minParallelItems {
		runShards(s.workers(), len(entries), digestRange)
	} else {
		digestRange(0, len(entries))
	}
	return out
}

// digest reduces one entry to what the analyses read. The mask, the
// product count and the component class come from its OS-part CPEs; the
// release references are every product registry.Cluster resolves,
// whatever its CPE part, deduplicated in CPE order.
func (s *Study) digest(e *cve.Entry, mask osmap.Mask) digested {
	productSet := make(map[string]bool, len(e.Products))
	var refs []relRef
	for _, p := range e.Products {
		d, clustered := s.registry.Cluster(p)
		if clustered {
			if r := (relRef{d, p.Version}); !slices.Contains(refs, r) {
				refs = append(refs, r)
			}
		}
		if !p.IsOS() {
			continue
		}
		productSet[p.Vendor+"/"+p.Product] = true
		if clustered {
			if i, ok := s.index[d]; ok {
				// SetGrow keeps ingestion alive even if a registry ever
				// maps a product to a distro beyond the universe width.
				mask = mask.SetGrow(i)
			}
		}
	}
	nos := mask.OnesCount()
	if nos == 0 {
		return digested{}
	}
	return digested{
		rec: record{
			id:       e.ID,
			mask:     mask,
			nos:      nos,
			class:    s.classifier.Classify(e),
			remote:   e.Remote(),
			year:     e.Year(),
			validity: classify.EntryValidity(e),
			products: len(productSet),
		},
		refs: refs,
		ok:   true,
	}
}

// seal installs the valid records ordered by publication year, so the
// bitset index can answer period and window queries over contiguous bit
// ranges, and flattens their release references into the release
// columns — the one finishing step of Builder and DeltaBuilder.
// refsOf(i) returns recs[i]'s references. The sort is stable and runs
// through a permutation the references follow, and versions are
// interned in sorted-record order, so a Study built from any batch
// split of the same entry sequence, or by a delta over a base, lands on
// the identical record layout and release columns.
func (s *Study) seal(recs []record, refsOf func(i int) []relRef) {
	perm := make([]int, len(recs))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(x, y int) int { return cmp.Compare(recs[x].year, recs[y].year) })
	s.records = make([]record, len(recs))
	rc := relColumns{off: make([]int32, len(recs)+1)}
	vidx := make(map[string]uint32)
	for k, i := range perm {
		s.records[k] = recs[i]
		for _, r := range refsOf(i) {
			vi, ok := vidx[r.version]
			if !ok {
				vi = uint32(len(rc.versions))
				vidx[r.version] = vi
				rc.versions = append(rc.versions, r.version)
			}
			rc.refs = append(rc.refs, uint64(r.d)<<32|uint64(vi))
		}
		rc.off[k+1] = int32(len(rc.refs))
	}
	s.relCols = rc
}
