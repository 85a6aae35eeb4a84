package core

import (
	"cmp"
	"slices"

	"osdiversity/internal/classify"
	"osdiversity/internal/cpe"
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
// and Finish seals them into year segments with one stable year sort,
// so every table is byte-identical to an all-at-once build.
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
	batch := b.s.digestBatch(entries)
	valid := 0
	for i := range batch {
		if batch[i].ok && batch[i].rec.validity == classify.Valid {
			valid++
		}
	}
	b.recs = slices.Grow(b.recs, valid)
	b.refs = slices.Grow(b.refs, valid)
	for _, d := range batch {
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
	var refs []relRef
	products := 0
	for j, p := range e.Products {
		d, clustered := s.registry.Cluster(p)
		if clustered {
			if r := (relRef{d, p.Version}); !slices.Contains(refs, r) {
				refs = append(refs, r)
			}
		}
		if !p.IsOS() {
			continue
		}
		// Count each OS vendor/product pair at its first occurrence.
		if !slices.ContainsFunc(e.Products[:j], func(q cpe.Name) bool {
			return q.IsOS() && q.Vendor == p.Vendor && q.Product == p.Product
		}) {
			products++
		}
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
			products: products,
		},
		refs: refs,
		ok:   true,
	}
}

// seal installs the valid records as year segments, years ascending and
// input order kept within each year, and copies the invalid records'
// masks into one arena the Study owns — the finishing step of Builder.
// refsOf(i) returns recs[i]'s release references. The year grouping is
// a stable sort, so a Study built from any batch split of the same entry
// sequence lands on identical segments.
func (s *Study) seal(recs []record, refsOf func(i int) []relRef) {
	perm := make([]int, len(recs))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(x, y int) int { return cmp.Compare(recs[x].year, recs[y].year) })
	var runs [][]int // perm split into one run per year
	for lo := 0; lo < len(perm); {
		hi := lo + 1
		for hi < len(perm) && recs[perm[hi]].year == recs[perm[lo]].year {
			hi++
		}
		runs = append(runs, perm[lo:hi])
		lo = hi
	}
	s.segs = make([]*segment, len(runs))
	s.fresh = make([]bool, len(runs))
	eachSegment(s.workers(), len(runs), func(k int) {
		run := runs[k]
		yrecs := make([]record, len(run))
		for i, j := range run {
			yrecs[i] = recs[j]
		}
		s.segs[k] = s.newSegment(yrecs[0].year, yrecs, func(i int) []relRef { return refsOf(run[i]) })
		s.fresh[k] = true
	})
	s.nValid = len(recs)
	s.invalid = append(make([]record, 0, len(s.invalid)), s.invalid...) // drop the append slack
	ownMasks(s.invalid, s.maskWords)
}

// ownMasks copies the records' masks into one fresh arena, so the
// records hold no digest batch's (or base's, or mapped file's) arena
// alive.
func ownMasks(recs []record, mw int) {
	arena := make([]uint64, len(recs)*mw)
	for i := range recs {
		m := osmap.Mask(arena[i*mw : (i+1)*mw : (i+1)*mw])
		copy(m, recs[i].mask)
		recs[i].mask = m
	}
}
