package osdiversity

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"osdiversity/internal/core"
	"osdiversity/internal/osmap"
	"osdiversity/internal/snapshot"
)

// This file is the facade over internal/snapshot: any loader can tee a
// snapshot to disk with WithSnapshot, an existing Analysis can be
// persisted with SaveSnapshot, and LoadSnapshot warm-starts an Analysis
// from the file without touching a feed. The loaded study adopts the
// file's columns zero-copy (mmap where available), so a 100k-entry boot
// is dominated by one checksum pass instead of XML decode + digestion.

// WithSnapshot makes the analysis loaders (LoadFeeds, LoadCalibrated,
// LoadSynthetic, LoadDatabase), ImportFeeds and ApplyDelta also persist
// the digested study as a snapshot at path, atomically, after a
// successful load.
func WithSnapshot(path string) Option {
	return func(c *config) { c.snapshot = path }
}

// finishAnalysis stamps provenance onto a freshly built study and, when
// the config asks for one, tees the snapshot to disk — the shared tail
// of every loader.
func (c config) finishAnalysis(st *core.Study, source string, malformed int) (*Analysis, error) {
	a := &Analysis{
		study:            st,
		source:           source,
		epoch:            time.Now(),
		malformedSkipped: malformed,
	}
	if c.snapshot != "" {
		if err := a.SaveSnapshot(c.snapshot); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// SaveSnapshot persists the analysis's columnar state at path (written
// to path+".tmp" and renamed into place). The analysis must run over
// the paper registry or a synthetic universe — the two the loader can
// reconstruct; a custom WithRegistry universe cannot round-trip and is
// refused.
func (a *Analysis) SaveSnapshot(path string) error {
	uni, err := universeDescriptor(a.study.Distros())
	if err != nil {
		return err
	}
	meta := snapshot.Meta{
		Universe:         uni,
		Source:           a.source,
		SavedAtUnix:      a.Epoch().Unix(),
		MalformedSkipped: a.malformedSkipped,
	}
	return snapshot.Save(path, a.study.ExportColumns(), meta)
}

// LoadSnapshot warm-starts the analysis from a snapshot file, read-only.
// The universe is reconstructed from the file's metadata;
// WithParallelism applies as with any loader, and the resulting tables
// are byte-identical to the feed-built originals. The
// file region may stay mapped for the life of the Analysis; Close
// releases it.
func LoadSnapshot(path string, opts ...Option) (*Analysis, error) {
	cfg := newConfig(opts)
	if cfg.sharded() {
		return nil, fmt.Errorf("osdiversity: WithYearShard needs the corpus's entries, which a snapshot does not hold; shard from feeds or a database")
	}
	snap, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	reg, err := registryForUniverse(snap.Meta.Universe)
	if err != nil {
		snap.Close()
		return nil, err
	}
	st, err := core.FromColumns(&snap.Cols, core.WithParallelism(cfg.workers), core.WithRegistry(reg))
	if err != nil {
		snap.Close()
		return nil, err
	}
	if cfg.feedStats != nil {
		cfg.feedStats.MalformedSkipped = snap.Meta.MalformedSkipped
	}
	return &Analysis{
		study:            st,
		source:           snap.Meta.Source,
		epoch:            time.Unix(snap.Meta.SavedAtUnix, 0),
		snapshotDigest:   snap.Digest,
		malformedSkipped: snap.Meta.MalformedSkipped,
		snap:             snap,
	}, nil
}

// Epoch reports when the analysis's corpus was built: the load time for
// feed-built analyses, the save time recorded in the file for
// snapshot-loaded ones (so every replica booted from one snapshot
// reports the same epoch).
func (a *Analysis) Epoch() time.Time { return a.epoch }

// SnapshotDigest reports the payload digest of the snapshot the
// analysis was booted from ("crc32c:xxxxxxxx"), or "" when it was built
// from a corpus directly.
func (a *Analysis) SnapshotDigest() string { return a.snapshotDigest }

// MalformedSkipped reports how many malformed entries a lenient feed
// load dropped before ingestion (preserved across the snapshot round
// trip).
func (a *Analysis) MalformedSkipped() int { return a.malformedSkipped }

// Close releases the snapshot file mapping backing the analysis, if
// any. Queries must have quiesced; a no-op for feed-built analyses.
func (a *Analysis) Close() error {
	if a.snap == nil {
		return nil
	}
	s := a.snap
	a.snap = nil
	return s.Close()
}

// universeDescriptor names a registry universe so a snapshot reader can
// rebuild it: the paper's 11 distros or a synthetic prefix universe.
func universeDescriptor(ds []osmap.Distro) (string, error) {
	paper := osmap.Distros()
	n := len(ds)
	if n > len(paper)+1024 {
		return "", fmt.Errorf("osdiversity: cannot snapshot a %d-distro custom universe", n)
	}
	for i, d := range ds {
		var want osmap.Distro
		if i < len(paper) {
			want = paper[i]
		} else {
			want = osmap.SyntheticDistro(i - len(paper))
		}
		if d != want {
			return "", fmt.Errorf("osdiversity: cannot snapshot a custom registry universe (distro %d is %v)", i, d)
		}
	}
	if n == len(paper) {
		return "paper", nil
	}
	return fmt.Sprintf("synthetic:%d", n), nil
}

// registryForUniverse inverts universeDescriptor.
func registryForUniverse(uni string) (*osmap.Registry, error) {
	if uni == "paper" {
		return osmap.NewRegistry(), nil
	}
	if rest, ok := strings.CutPrefix(uni, "synthetic:"); ok {
		n, err := strconv.Atoi(rest)
		if err == nil && n >= 2 && n <= 1024 {
			return osmap.NewSyntheticRegistry(n), nil
		}
	}
	return nil, fmt.Errorf("osdiversity: snapshot names unknown universe %q", uni)
}
