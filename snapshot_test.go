package osdiversity

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// fullFingerprint widens tableFingerprint with every remaining facade
// query — replica selection, the release grid, filtering, the attack
// extension — so a snapshot-loaded analysis is compared against its
// feed-built original across the whole API surface, byte for byte.
func fullFingerprint(t *testing.T, a *Analysis) []byte {
	t.Helper()
	overlap, err := a.ReleaseOverlap("Debian", "4.0", "RedHat", "5.0")
	if err != nil {
		t.Fatalf("ReleaseOverlap: %v", err)
	}
	atk, err := a.SimulateAttack("set1", []string{"Windows2003", "Solaris", "Debian", "OpenBSD"}, 1, 20)
	if err != nil {
		t.Fatalf("SimulateAttack: %v", err)
	}
	doc := map[string]any{
		"tables":  json.RawMessage(tableFingerprint(t, a)),
		"select":  a.SelectReplicaSets(4, true, 2005),
		"overlap": overlap,
		"filter":  a.FilterReduction(),
		"attack":  atk,
		"most200": a.MostShared(200),
		"names":   a.OSNames(),
		"skipped": a.MalformedSkipped(),
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal full fingerprint: %v", err)
	}
	return raw
}

// TestSnapshotRoundTripCalibrated is the tentpole acceptance test: the
// calibrated corpus saved to a snapshot and warm-started back yields
// byte-identical answers at workers 1 and 4.
func TestSnapshotRoundTripCalibrated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "study.osds")
		built, err := LoadCalibrated(WithParallelism(workers), WithSnapshot(path))
		if err != nil {
			t.Fatalf("LoadCalibrated(workers=%d): %v", workers, err)
		}
		loaded, err := LoadSnapshot(path, WithParallelism(workers))
		if err != nil {
			t.Fatalf("LoadSnapshot(workers=%d): %v", workers, err)
		}
		t.Cleanup(func() { loaded.Close() })

		if loaded.SnapshotDigest() == "" {
			t.Error("snapshot-loaded analysis reports no digest")
		}
		if built.SnapshotDigest() != "" {
			t.Errorf("feed-built analysis reports digest %q", built.SnapshotDigest())
		}
		// The epoch survives at second precision: every replica booted
		// from one snapshot reports the build's save time.
		if want := time.Unix(built.Epoch().Unix(), 0); !loaded.Epoch().Equal(want) {
			t.Errorf("epoch %v != saved %v", loaded.Epoch(), want)
		}
		if loaded.ValidCount() != built.ValidCount() {
			t.Errorf("ValidCount %d != %d", loaded.ValidCount(), built.ValidCount())
		}
		want := fullFingerprint(t, built)
		if got := fullFingerprint(t, loaded); !bytes.Equal(want, got) {
			t.Errorf("workers %d: snapshot-loaded tables differ from feed-built tables", workers)
		}
	}
}

// TestSnapshotRoundTripSynthetic covers a non-paper universe: a seeded
// synthetic corpus wide enough to include every paper distro plus
// generated ones. Scaled down so it runs under -race; the 100k version
// lives in snapshot_big_test.go.
func TestSnapshotRoundTripSynthetic(t *testing.T) {
	spec := SyntheticSpec{Entries: 8_000, Distros: 16, Seed: 11}
	path := filepath.Join(t.TempDir(), "syn.osds")
	built, err := LoadSynthetic(spec, WithParallelism(4), WithSnapshot(path))
	if err != nil {
		t.Fatalf("LoadSynthetic: %v", err)
	}
	loaded, err := LoadSnapshot(path, WithParallelism(4))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	t.Cleanup(func() { loaded.Close() })
	if got, want := len(loaded.OSNames()), len(built.OSNames()); got != want {
		t.Fatalf("universe width %d != %d", got, want)
	}
	if want, got := fullFingerprint(t, built), fullFingerprint(t, loaded); !bytes.Equal(want, got) {
		t.Error("synthetic snapshot round trip changed the tables")
	}
}

// TestSnapshotFromStreamImport covers the nvdimport path: the streamed
// SQL import tees the entry flow through the incremental Study builder
// when a snapshot is requested, and the snapshot it writes must answer
// like a directly feed-built analysis. (Regression: the tee goroutine
// once captured the reassigned channel variable and deadlocked on its
// own output.)
func TestSnapshotFromStreamImport(t *testing.T) {
	dir := t.TempDir()
	feeds, err := GenerateFeeds(filepath.Join(dir, "feeds"), WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	snap := filepath.Join(dir, "import.osds")
	stored, _, err := ImportFeedsStream(filepath.Join(dir, "s.db"), feeds,
		WithParallelism(2), WithSnapshot(snap))
	if err != nil || stored == 0 {
		t.Fatalf("ImportFeedsStream: %v, %d stored", err, stored)
	}
	loaded, err := LoadSnapshot(snap, WithParallelism(2))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	t.Cleanup(func() { loaded.Close() })
	built, err := LoadFeeds(feeds, WithParallelism(2))
	if err != nil {
		t.Fatalf("LoadFeeds: %v", err)
	}
	if want, got := fullFingerprint(t, built), fullFingerprint(t, loaded); !bytes.Equal(want, got) {
		t.Error("stream-import snapshot differs from feed-built tables")
	}
}

// TestSnapshotLenientSkipCounts asserts the lenient skip counter rides
// along in the snapshot metadata: a warm-started replica reports the
// same dropped-entry count as the process that ingested the feeds.
func TestSnapshotLenientSkipCounts(t *testing.T) {
	paths, bad := writeLenientFeeds(t, t.TempDir())
	if bad == 0 {
		t.Fatal("fixture wrote no malformed entries")
	}
	path := filepath.Join(t.TempDir(), "lenient.osds")
	var streamStats FeedStats
	streamed, err := StreamFeeds(paths, WithParallelism(4), WithLenient(),
		WithFeedStats(&streamStats), WithSnapshot(path))
	if err != nil {
		t.Fatalf("StreamFeeds: %v", err)
	}
	if streamStats.MalformedSkipped != bad || streamed.MalformedSkipped() != bad {
		t.Errorf("stream skip counts (%d, %d) != %d written",
			streamStats.MalformedSkipped, streamed.MalformedSkipped(), bad)
	}
	var loadStats FeedStats
	loaded, err := LoadSnapshot(path, WithParallelism(4), WithFeedStats(&loadStats))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	t.Cleanup(func() { loaded.Close() })
	if loadStats.MalformedSkipped != bad || loaded.MalformedSkipped() != bad {
		t.Errorf("snapshot skip counts (%d, %d) != %d written",
			loadStats.MalformedSkipped, loaded.MalformedSkipped(), bad)
	}
	if want, got := fullFingerprint(t, streamed), fullFingerprint(t, loaded); !bytes.Equal(want, got) {
		t.Error("lenient snapshot round trip changed the tables")
	}
}
