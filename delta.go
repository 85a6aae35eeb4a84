package osdiversity

import (
	"osdiversity/internal/core"
	"osdiversity/internal/cve"
)

// ApplyDelta derives a new Analysis from this one plus a set of NVD
// delta feed files (plain or .gz, e.g. the "modified"/"recent" feeds) —
// the live-epoch reload path. The delta streams through LoadFeeds'
// bounded pipeline into an incremental overlay build: entries whose CVE
// identifiers the base already holds replace the old records
// (last-writer-wins, whatever the entry's new validity outcome),
// unknown identifiers append. The base is never mutated and keeps
// answering queries throughout; the returned Analysis shares no mutable
// or mapped memory with it, so a snapshot-booted base can be dropped
// (and its mapping closed) once traffic has drained to the new epoch.
//
// The result is identical — every table, selection and attack answer —
// to a cold build over the merged entry set. Worker count is inherited
// from the base unless WithParallelism overrides it; the distro universe
// always comes from the base (WithSyntheticUniverse is ignored).
// WithSnapshot tees the merged epoch to disk before returning; a failed
// tee fails the whole apply.
//
// Delta feeds are parsed strictly by default so a truncated or corrupt
// file aborts the apply (leaving the base untouched); WithLenient +
// WithFeedStats opt into skip-and-count, as in the loaders.
func (a *Analysis) ApplyDelta(paths []string, opts ...Option) (*Analysis, error) {
	// Seed the worker count from the base rather than newConfig's serial
	// default, so a parallel epoch stays parallel across reloads.
	cfg := config{workers: a.study.Parallelism()}
	for _, opt := range opts {
		opt(&cfg)
	}
	b := core.NewDeltaBuilder(a.study)
	malformed, err := cfg.drainFeeds(paths, func(batch []*cve.Entry) error {
		b.Add(batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := b.Finish()
	merged.SetParallelism(cfg.workers)
	return cfg.finishAnalysis(merged, a.source, a.malformedSkipped+malformed)
}

// SelfCheck deep-validates the analysis's internal consistency — the
// same exhaustive column checks hostile snapshot files are subjected
// to — and warms the query indexes as a side effect. The epoch manager
// runs it on every candidate epoch before swapping it live.
func (a *Analysis) SelfCheck() error { return a.study.SelfCheck() }
