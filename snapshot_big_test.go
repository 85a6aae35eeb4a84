//go:build !race

package osdiversity

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"
)

// TestSnapshotRoundTripSynthetic100k is the full-scale identity check
// from the issue: the 100k-entry synthetic corpus saved and warm-started
// answers every table identically. Excluded under -race (the scaled
// version in snapshot_test.go covers the race detector).
func TestSnapshotRoundTripSynthetic100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k corpus round trip skipped in -short mode")
	}
	spec := SyntheticSpec{Entries: 100_000, Distros: 32, Seed: 1}
	path := filepath.Join(t.TempDir(), "syn100k.osds")
	built, err := LoadSynthetic(spec, WithParallelism(4), WithSnapshot(path))
	if err != nil {
		t.Fatalf("LoadSynthetic: %v", err)
	}
	loaded, err := LoadSnapshot(path, WithParallelism(4))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	t.Cleanup(func() { loaded.Close() })
	if loaded.ValidCount() != built.ValidCount() {
		t.Fatalf("ValidCount %d != %d", loaded.ValidCount(), built.ValidCount())
	}
	if want, got := fullFingerprint(t, built), fullFingerprint(t, loaded); !bytes.Equal(want, got) {
		t.Error("100k snapshot round trip changed the tables")
	}
}

// TestSnapshotWarmStartSpeedup is the issue's floor: at 100k entries
// the snapshot boot must be at least 10x faster than streaming feed
// digestion (the measured margin is ~2 orders larger, so the test has
// huge noise headroom; BENCH_core.json tracks the precise numbers).
func TestSnapshotWarmStartSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests the 100k corpus from feeds")
	}
	dir := t.TempDir()
	spec := SyntheticSpec{Entries: 100_000, Distros: 32, Seed: 1}
	paths, err := GenerateSyntheticFeeds(dir, spec, WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateSyntheticFeeds: %v", err)
	}
	snapPath := filepath.Join(dir, "warm.osds")

	feedStart := time.Now()
	a, err := LoadFeeds(paths, WithParallelism(4),
		WithSyntheticUniverse(32), WithSnapshot(snapPath))
	if err != nil {
		t.Fatalf("LoadFeeds: %v", err)
	}
	feedCost := time.Since(feedStart) // includes the snapshot save: a conservative baseline
	valid := a.ValidCount()

	snapStart := time.Now()
	b, err := LoadSnapshot(snapPath, WithParallelism(4))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	snapCost := time.Since(snapStart)
	t.Cleanup(func() { b.Close() })
	if b.ValidCount() != valid {
		t.Fatalf("ValidCount %d != %d", b.ValidCount(), valid)
	}
	if snapCost*10 > feedCost {
		t.Errorf("snapshot boot %v is not 10x faster than feed digestion %v", snapCost, feedCost)
	}
	t.Logf("feed digestion %v, snapshot boot %v (%.0fx)",
		feedCost, snapCost, float64(feedCost)/float64(snapCost))
}
