//go:build !race

// The constant-footprint acceptance check of the streaming pipeline:
// peak ingestion allocation must stay flat (within 1.5×, plus a small
// allocator slack) while feed volume grows 4× — the property that lets
// feeds larger than memory ingest — and a finished feed load must keep
// digests, not entries. Race builds skip both: the detector's shadow
// memory distorts every heap measurement.

package osdiversity

import (
	"runtime"
	"sync"
	"testing"

	"osdiversity/internal/cve"
	"osdiversity/internal/nvdfeed"
)

// Footprint corpus volumes: the 4× set has exactly four times the
// entries of the 1× set over the same universe and year span.
const (
	footprint1x = 6_000
	footprint4x = 24_000
)

var (
	footprintOnce  sync.Once
	footprintErr   error
	footprintPaths map[int][]string // volume -> feed files
)

// footprintFeeds renders the two synthetic feed sets once per process.
func footprintFeeds(tb testing.TB) map[int][]string {
	tb.Helper()
	footprintOnce.Do(func() {
		footprintPaths = make(map[int][]string)
		for _, volume := range []int{footprint1x, footprint4x} {
			dir, err := fixtureDir("osdiv-footprint-*")
			if err != nil {
				footprintErr = err
				return
			}
			paths, err := GenerateSyntheticFeeds(dir, SyntheticSpec{
				Entries: volume, Distros: 16, Seed: 11,
			}, WithParallelism(4))
			if err != nil {
				footprintErr = err
				return
			}
			footprintPaths[volume] = paths
		}
	})
	if footprintErr != nil {
		tb.Fatalf("footprint feeds: %v", footprintErr)
	}
	return footprintPaths
}

// footprintSampleEvery is the forced-GC sampling cadence of
// peakStreamFootprint: frequent enough that retention growing with
// volume shows up mid-stream, sparse enough that the forced collections
// stay a small fraction of the streaming time.
const footprintSampleEvery = 2048

// peakStreamFootprint drains a stream while sampling the live heap,
// returning the entry count and the peak retention above the pre-stream
// baseline.
//
// Each sample forces a collection first, so HeapAlloc reads live memory
// rather than live-plus-floating-garbage. Retained memory survives the
// GC, so growth with feed volume is still caught; without the forced
// GC the pacer lets floating garbage grow in proportion to the whole
// live heap, and resident fixtures held by *other* tests or benchmarks
// in the same process (the 100k study caches are tens of MB) would
// dominate the measurement and drown the streaming path's own
// footprint.
func peakStreamFootprint(tb testing.TB, paths []string, workers int) (entries int, peak uint64) {
	tb.Helper()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	st := nvdfeed.StreamFiles(paths, nvdfeed.Workers(workers))
	defer st.Close()
	var maxHeap uint64
	sample := func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > maxHeap {
			maxHeap = ms.HeapAlloc
		}
	}
	for range st.Entries() {
		entries++
		if entries%footprintSampleEvery == 0 {
			sample()
		}
	}
	if err := st.Err(); err != nil {
		tb.Fatalf("stream: %v", err)
	}
	sample()
	if maxHeap <= base {
		return entries, 0
	}
	return entries, maxHeap - base
}

// materializedLive measures the heap a consumer that collects the
// stream into a slice retains once the whole 4× entry slice is
// resident — the reference the streaming peak must stay well under.
func materializedLive(tb testing.TB, paths []string) uint64 {
	tb.Helper()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	st := nvdfeed.StreamFiles(paths, nvdfeed.Workers(4))
	defer st.Close()
	var entries []*cve.Entry
	for e := range st.Entries() {
		entries = append(entries, e)
	}
	if err := st.Err(); err != nil {
		tb.Fatalf("stream: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	runtime.KeepAlive(entries)
	if live <= base {
		return 0
	}
	return live - base
}

// footprintSlack absorbs allocator and GC-timing noise in the flatness
// comparison: both volumes' peaks sit within a few MB of each other,
// while a collected entry slice grows by tens of MB per volume step.
const footprintSlack = 8 << 20

func checkFootprintFlat(tb testing.TB, workers int) (peak1, peak4 uint64) {
	feeds := footprintFeeds(tb)
	n1, peak1 := peakStreamFootprint(tb, feeds[footprint1x], workers)
	n4, peak4 := peakStreamFootprint(tb, feeds[footprint4x], workers)
	if n1 != footprint1x || n4 != footprint4x {
		tb.Fatalf("drained %d and %d entries, want %d and %d", n1, n4, footprint1x, footprint4x)
	}
	if limit := peak1 + peak1/2 + footprintSlack; peak4 > limit {
		tb.Fatalf("streaming peak grew with volume: 1x=%d bytes, 4x=%d bytes (limit %d) — not constant footprint",
			peak1, peak4, limit)
	}
	return peak1, peak4
}

// TestStreamIngestConstantFootprint is the acceptance gate: 4× the feed
// volume must not grow the streaming peak beyond 1.5× (plus slack), and
// the peak must stay under what a collecting consumer retains just to
// hold the 4× slice.
func TestStreamIngestConstantFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two synthetic feed corpora")
	}
	peak1, peak4 := checkFootprintFlat(t, 4)
	live := materializedLive(t, footprintFeeds(t)[footprint4x])
	t.Logf("stream peak 1x=%dKB 4x=%dKB; collected 4x live=%dKB", peak1>>10, peak4>>10, live>>10)
	if peak4 >= live {
		t.Errorf("streaming peak (%d bytes) not below the collected 4x live heap (%d bytes)", peak4, live)
	}
}

// TestLoadFeedsRetainsDigestsOnly bounds what a feed-built analysis
// keeps resident: the Study's digests and release columns, not the
// parsed entries, so the 4× analysis retains less than half of what a
// consumer holding the collected 4× entry slice does.
func TestLoadFeedsRetainsDigestsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two synthetic feed corpora")
	}
	paths := footprintFeeds(t)[footprint4x]
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	a, err := LoadFeeds(paths, WithParallelism(4))
	if err != nil {
		t.Fatalf("LoadFeeds: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - int64(base)
	runtime.KeepAlive(a)
	live := materializedLive(t, paths)
	t.Logf("LoadFeeds 4x retains %dKB; collected 4x live=%dKB", retained>>10, live>>10)
	if retained >= int64(live/2) {
		t.Errorf("LoadFeeds retains %d bytes, not below half the collected 4x live heap (%d bytes)", retained, live)
	}
}

// BenchmarkStreamIngestFootprint is the CI form of the same check (its
// ns/op lands in BENCH_core.json under the regression gate); each
// iteration streams both volumes and fails on a non-flat peak.
func BenchmarkStreamIngestFootprint(b *testing.B) {
	footprintFeeds(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, peak4 := checkFootprintFlat(b, 4)
		b.ReportMetric(float64(peak4), "peak-bytes")
	}
}
