package nvdfeed

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
)

// readAll drains r with the sequential Reader.Next — the reference
// decode every StreamFiles pipeline shape is compared against.
func readAll(r *Reader) ([]*cve.Entry, error) {
	var out []*cve.Entry
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// readFiles is readAll over each file in path order: the entries up to
// the first failure, the lenient skip total, and that failure.
func readFiles(paths []string, opts ...ReaderOption) ([]*cve.Entry, int, error) {
	var out []*cve.Entry
	skipped := 0
	for _, path := range paths {
		r, err := OpenFile(path, opts...)
		if err != nil {
			return out, skipped, err
		}
		entries, err := readAll(r)
		skipped += r.Skipped()
		r.Close()
		out = append(out, entries...)
		if err != nil {
			return out, skipped, err
		}
	}
	return out, skipped, nil
}

// drainStream consumes a stream fully, returning the entries and the
// terminal error.
func drainStream(st *Stream) ([]*cve.Entry, error) {
	defer st.Close()
	var out []*cve.Entry
	for e := range st.Entries() {
		out = append(out, e)
	}
	return out, st.Err()
}

// writeCorpusFeeds renders the calibrated corpus into per-year feed
// files and returns the paths in year order.
func writeCorpusFeeds(t testing.TB) ([]string, []*cve.Entry) {
	t.Helper()
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	dir := t.TempDir()
	var paths []string
	var want []*cve.Entry
	for _, g := range corpus.SplitByYear(c.Entries) {
		path := filepath.Join(dir, "nvdcve-2.0-"+strconv.Itoa(g.Year)+".xml.gz")
		if err := WriteFile(path, "CVE-"+strconv.Itoa(g.Year), g.Entries); err != nil {
			t.Fatalf("WriteFile(%d): %v", g.Year, err)
		}
		paths = append(paths, path)
		want = append(want, g.Entries...)
	}
	return paths, want
}

// TestStreamFilesMatchesReadFiles asserts every pipeline shape (serial,
// single-file pool, multi-file fan-out) emits exactly the entries of
// readFiles' serial walk, in order, with the same lenient skip count,
// over clean and malformed feeds.
func TestStreamFilesMatchesReadFiles(t *testing.T) {
	paths, want := writeCorpusFeeds(t)
	malformed, _, _ := writeMalformedFeeds(t)
	cases := []struct {
		name    string
		paths   []string
		workers int
		opts    []ReaderOption
	}{
		{"serial multi-file", paths, 1, nil},
		{"fan-out multi-file", paths, 4, nil},
		{"single file serial", paths[len(paths)-1:], 1, nil},
		{"single file pooled", paths[len(paths)-1:], 4, nil},
		{"lenient serial multi-file", malformed, 1, []ReaderOption{Lenient()}},
		{"lenient fan-out multi-file", malformed, 4, []ReaderOption{Lenient()}},
		{"lenient single file pooled", malformed[:1], 4, []ReaderOption{Lenient()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refSkipped, err := readFiles(tc.paths, tc.opts...)
			if err != nil {
				t.Fatalf("readFiles: %v", err)
			}
			if len(tc.paths) == len(paths) && len(ref) != len(want) {
				t.Fatalf("serial walk lost entries: %d != %d", len(ref), len(want))
			}
			var skips SkipStats
			opts := append([]ReaderOption{Workers(tc.workers), WithSkipStats(&skips)}, tc.opts...)
			got, err := drainStream(StreamFiles(tc.paths, opts...))
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			if len(got) != len(ref) {
				t.Fatalf("stream emitted %d entries, want %d", len(got), len(ref))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Fatalf("entry %d differs between stream and serial walk", i)
				}
			}
			if skips.Skipped() != refSkipped {
				t.Errorf("stream skipped %d, serial walk %d", skips.Skipped(), refSkipped)
			}
		})
	}
}

// writeMalformedFeeds splits the calibrated corpus into three files with
// malformed entries interleaved in each, returning paths and the counts.
func writeMalformedFeeds(t *testing.T) (paths []string, good, bad int) {
	t.Helper()
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	dir := t.TempDir()
	third := len(c.Entries) / 3
	chunks := [][]*cve.Entry{c.Entries[:third], c.Entries[third : 2*third], c.Entries[2*third:]}
	perFile := []int{2, 0, 3}
	for i, chunk := range chunks {
		path := filepath.Join(dir, "feed-"+string(rune('a'+i))+".xml.gz")
		if err := WriteFileWithMalformed(path, "CVE-FIX", chunk, perFile[i]); err != nil {
			t.Fatalf("WriteFileWithMalformed: %v", err)
		}
		paths = append(paths, path)
		good += len(chunk)
		bad += perFile[i]
	}
	return paths, good, bad
}

// TestStreamLenientSkipStats asserts lenient skip counts aggregate (not
// silently dropped) through the stream at every worker count and
// through a single file's Reader, matching what the fixture wrote.
func TestStreamLenientSkipStats(t *testing.T) {
	paths, good, bad := writeMalformedFeeds(t)
	for _, workers := range []int{1, 4} {
		var stats SkipStats
		entries, err := drainStream(StreamFiles(paths, Lenient(), Workers(workers), WithSkipStats(&stats)))
		if err != nil {
			t.Fatalf("workers %d: stream: %v", workers, err)
		}
		if len(entries) != good || stats.Skipped() != bad {
			t.Errorf("workers %d: stream = %d entries, %d skipped; want %d, %d",
				workers, len(entries), stats.Skipped(), good, bad)
		}
	}

	// A single reader feeds the aggregate too.
	var one SkipStats
	r, err := OpenFile(paths[0], Lenient(), WithSkipStats(&one))
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer r.Close()
	if _, err := readAll(r); err != nil {
		t.Fatalf("readAll: %v", err)
	}
	if one.Skipped() != 2 || r.Skipped() != 2 {
		t.Errorf("reader skipped %d (aggregate %d), want 2", r.Skipped(), one.Skipped())
	}
}

// TestStreamStrictError asserts strict streams fail on the first
// malformed entry at every pipeline shape, emitting the entries before
// it and reporting the failure the serial walk reports.
func TestStreamStrictError(t *testing.T) {
	paths, _, _ := writeMalformedFeeds(t)
	for _, tc := range []struct {
		paths   []string
		workers int
	}{{paths, 1}, {paths, 4}, {paths[:1], 4}} {
		ref, _, refErr := readFiles(tc.paths)
		if refErr == nil {
			t.Fatal("serial walk succeeded over malformed feeds")
		}
		got, err := drainStream(StreamFiles(tc.paths, Workers(tc.workers)))
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("%d files, workers %d: stream error %v, want %v", len(tc.paths), tc.workers, err, refErr)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%d files, workers %d: stream emitted %d entries before failing, serial walk %d",
				len(tc.paths), tc.workers, len(got), len(ref))
		}
	}
}

// TestStreamOpenError asserts a missing file surfaces as the terminal
// error in every mode.
func TestStreamOpenError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.xml")
	for _, workers := range []int{1, 4} {
		_, err := drainStream(StreamFiles([]string{missing, missing}, Workers(workers)))
		if err == nil {
			t.Errorf("workers %d: stream over missing files succeeded", workers)
		}
	}
}

// TestStreamCloseEarly closes mid-stream and asserts the pipeline winds
// down without the consumer draining it.
func TestStreamCloseEarly(t *testing.T) {
	paths, _ := writeCorpusFeeds(t)
	for _, workers := range []int{1, 4} {
		st := StreamFiles(paths, Workers(workers))
		var got int
		for range st.Entries() {
			if got++; got == 10 {
				break
			}
		}
		st.Close()
		// The channel must close shortly after cancellation.
		for range st.Entries() {
		}
		if err := st.Err(); err != nil {
			t.Errorf("workers %d: closed stream reports error %v", workers, err)
		}
	}
}

// TestStreamLargeFilesBeyondWindow drains many files that each
// overflow the per-file window, so producers must block on the
// collector mid-file — the shape that deadlocked a semaphore-based
// fan-out (later files could hold every slot while the collector
// waited on the head file).
func TestStreamLargeFilesBeyondWindow(t *testing.T) {
	sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
		Entries: 6 * 600, Distros: 8, Seed: 5, Workers: 4,
	})
	if err != nil {
		t.Fatalf("GenerateSynthetic: %v", err)
	}
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 6; i++ {
		chunk := sc.Entries[i*600 : (i+1)*600]
		path := filepath.Join(dir, fmt.Sprintf("chunk-%d.xml.gz", i))
		if err := WriteFile(path, "CVE-CHUNK", chunk); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		paths = append(paths, path)
	}
	for _, workers := range []int{2, 4} {
		got, err := drainStream(StreamFiles(paths, Workers(workers)))
		if err != nil {
			t.Fatalf("workers %d: stream: %v", workers, err)
		}
		if len(got) != len(sc.Entries) {
			t.Fatalf("workers %d: drained %d entries, want %d", workers, len(got), len(sc.Entries))
		}
		for i := range got {
			if got[i].ID != sc.Entries[i].ID {
				t.Fatalf("workers %d: entry %d out of order", workers, i)
			}
		}
	}
}
