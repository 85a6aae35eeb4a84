package core

import "osdiversity/internal/cve"

// Builder assembles a Study incrementally — the digestion sink of feed
// ingestion. It consumes batches as they decode (each batch digesting
// on the WithParallelism worker pool) and keeps only the compact
// per-entry records, so the full []*cve.Entry slice never has to exist
// at once.
//
// Identity guarantee: for the same entry sequence, any batch split
// produces a Study identical to NewStudy's — batches append records in
// input order and Finish applies the same stable year sort, so every
// table is byte-identical to an all-at-once build.
type Builder struct {
	s        *Study
	finished bool
}

// NewBuilder starts an incremental Study build. The options are those
// of NewStudy (registry, classifier, parallelism).
func NewBuilder(opts ...Option) *Builder {
	return &Builder{s: newStudyShell(opts)}
}

// Add digests one batch of entries. The batch slice is not retained
// (the entries themselves are, as in NewStudy), so callers may reuse
// its backing array. Add panics after Finish: the Study's record set
// is immutable once queries can run.
func (b *Builder) Add(entries ...*cve.Entry) {
	if b.finished {
		panic("core: Builder.Add after Finish")
	}
	b.s.ingest(entries)
}

// Finish seals the record set and returns the Study. The Builder must
// not be used afterwards.
func (b *Builder) Finish() *Study {
	if b.finished {
		panic("core: Builder.Finish called twice")
	}
	b.finished = true
	b.s.finalize()
	return b.s
}
