package osdiversity

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestApplyDeltaMatchesColdBuild asserts that booting from a prefix of
// the calibrated per-year feeds and applying the remainder as a delta
// answers every facade query byte-identically to a cold build over the
// full feed set — at workers 1 and 4, and from a snapshot-booted base.
func TestApplyDeltaMatchesColdBuild(t *testing.T) {
	dir := t.TempDir()
	feeds, err := GenerateFeeds(filepath.Join(dir, "feeds"), WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	if len(feeds) < 3 {
		t.Fatalf("calibrated corpus spans only %d feed files", len(feeds))
	}
	basePaths, deltaPaths := feeds[:len(feeds)-2], feeds[len(feeds)-2:]

	for _, workers := range []int{1, 4} {
		cold, err := LoadFeeds(feeds, WithParallelism(workers))
		if err != nil {
			t.Fatalf("LoadFeeds(all, workers=%d): %v", workers, err)
		}
		want := fullFingerprint(t, cold)

		base, err := LoadFeeds(basePaths, WithParallelism(workers))
		if err != nil {
			t.Fatalf("LoadFeeds(base, workers=%d): %v", workers, err)
		}
		baseBefore := fullFingerprint(t, base)
		merged, err := base.ApplyDelta(deltaPaths)
		if err != nil {
			t.Fatalf("ApplyDelta(workers=%d): %v", workers, err)
		}
		if got := merged.Parallelism(); got != workers {
			t.Errorf("merged epoch runs %d workers, want %d (inherited)", got, workers)
		}
		if got := fullFingerprint(t, merged); !bytes.Equal(want, got) {
			t.Errorf("workers %d: delta-applied analysis differs from cold build", workers)
		}
		// The base must be untouched by the apply.
		if baseAfter := fullFingerprint(t, base); !bytes.Equal(baseBefore, baseAfter) {
			t.Error("base analysis mutated by ApplyDelta")
		}
	}

	// The production reload shape: snapshot-booted base + delta feeds.
	snapPath := filepath.Join(dir, "base.osds")
	if _, err := LoadFeeds(basePaths, WithSnapshot(snapPath)); err != nil {
		t.Fatalf("LoadFeeds(tee): %v", err)
	}
	booted, err := LoadSnapshot(snapPath)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	defer booted.Close()
	teePath := filepath.Join(dir, "merged.osds")
	merged, err := booted.ApplyDelta(deltaPaths, WithSnapshot(teePath))
	if err != nil {
		t.Fatalf("ApplyDelta(snapshot base): %v", err)
	}
	cold, err := LoadFeeds(feeds)
	if err != nil {
		t.Fatalf("LoadFeeds(all): %v", err)
	}
	if got, want := fullFingerprint(t, merged), fullFingerprint(t, cold); !bytes.Equal(want, got) {
		t.Error("delta on snapshot-booted base differs from cold build")
	}
	if err := merged.SelfCheck(); err != nil {
		t.Errorf("SelfCheck(merged): %v", err)
	}
	// The merged epoch must not depend on the base's file mapping. Its
	// memos were filled before the close, so clear them: the fingerprint
	// after it must come from the epoch's own memory.
	if err := booted.Close(); err != nil {
		t.Fatalf("Close(base): %v", err)
	}
	merged.study.ClearCache()
	if got, want := fullFingerprint(t, merged), fullFingerprint(t, cold); !bytes.Equal(want, got) {
		t.Error("merged epoch broke when the base snapshot mapping closed")
	}
	// And the teed snapshot of the merged epoch warm-starts identically.
	reloaded, err := LoadSnapshot(teePath)
	if err != nil {
		t.Fatalf("LoadSnapshot(tee): %v", err)
	}
	defer reloaded.Close()
	if got, want := fullFingerprint(t, reloaded), fullFingerprint(t, cold); !bytes.Equal(want, got) {
		t.Error("teed snapshot of the merged epoch differs from cold build")
	}
}

// TestApplyDeltaFailuresLeaveBaseUsable asserts the degradation
// contract of the reload path: a corrupt delta feed or a failed
// snapshot tee returns an error and the base analysis keeps answering
// exactly as before.
func TestApplyDeltaFailuresLeaveBaseUsable(t *testing.T) {
	dir := t.TempDir()
	feeds, err := GenerateFeeds(filepath.Join(dir, "feeds"))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	base, err := LoadFeeds(feeds[:len(feeds)-1])
	if err != nil {
		t.Fatalf("LoadFeeds: %v", err)
	}
	before := fullFingerprint(t, base)

	corrupt := filepath.Join(dir, "nvdcve-2.0-corrupt.xml.gz")
	if err := os.WriteFile(corrupt, []byte("this is not gzip"), 0o644); err != nil {
		t.Fatalf("write corrupt delta: %v", err)
	}
	if _, err := base.ApplyDelta([]string{corrupt}); err == nil {
		t.Error("ApplyDelta(corrupt) succeeded, want error")
	}

	if _, err := base.ApplyDelta(feeds[len(feeds)-1:],
		WithSnapshot(filepath.Join(dir, "no-such-dir", "tee.osds"))); err == nil {
		t.Error("ApplyDelta with failing snapshot tee succeeded, want error")
	}

	if after := fullFingerprint(t, base); !bytes.Equal(before, after) {
		t.Error("failed ApplyDelta mutated the base analysis")
	}
}
