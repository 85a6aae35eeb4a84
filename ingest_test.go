package osdiversity

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/nvdfeed"
)

// tableFingerprint marshals every table the facade answers, so two
// analyses can be compared byte for byte.
func tableFingerprint(t *testing.T, a *Analysis) []byte {
	t.Helper()
	rows, distinct := a.ValidityTable()
	classRows, shares := a.ClassTable()
	temporal := map[string]map[int]int{}
	for _, name := range a.OSNames() {
		series, err := a.TemporalSeries(name)
		if err != nil {
			t.Fatalf("TemporalSeries(%s): %v", name, err)
		}
		temporal[name] = series
	}
	doc := map[string]any{
		"validity": rows,
		"distinct": distinct,
		"class":    classRows,
		"shares":   shares,
		"pairs":    a.PairwiseOverlaps(),
		"parts":    a.PartBreakdowns(),
		"periods":  a.HistoryObserved(2005),
		"kwise":    a.KWiseProducts(),
		"most":     a.MostShared(10),
		"temporal": temporal,
		"valid":    a.ValidCount(),
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal fingerprint: %v", err)
	}
	return raw
}

// serialDecode walks the feed files with the sequential Reader.Next,
// the reference decode the pipelined ingestion is compared against.
func serialDecode(t *testing.T, paths []string, opts ...nvdfeed.ReaderOption) []*cve.Entry {
	t.Helper()
	var out []*cve.Entry
	for _, path := range paths {
		r, err := nvdfeed.OpenFile(path, opts...)
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		for {
			e, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: Next: %v", path, err)
			}
			out = append(out, e)
		}
		r.Close()
	}
	return out
}

// TestLoadFeedsMatchesSerialDecode: LoadFeeds at workers 1 and 4 answers
// every table exactly as core.NewStudy over the serial decode does.
func TestLoadFeedsMatchesSerialDecode(t *testing.T) {
	feeds, err := GenerateFeeds(filepath.Join(t.TempDir(), "feeds"), WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	want := fullFingerprint(t, &Analysis{study: core.NewStudy(serialDecode(t, feeds))})
	for _, workers := range []int{1, 4} {
		a, err := LoadFeeds(feeds, WithParallelism(workers))
		if err != nil {
			t.Fatalf("LoadFeeds(workers=%d): %v", workers, err)
		}
		if !bytes.Equal(fullFingerprint(t, a), want) {
			t.Errorf("workers %d: LoadFeeds tables differ from NewStudy over the serial decode", workers)
		}
	}
}

// writeLenientFeeds renders per-year feeds with malformed entries
// interleaved into two of the files.
func writeLenientFeeds(t *testing.T, dir string) (paths []string, bad int) {
	t.Helper()
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	for i, g := range corpus.SplitByYear(c.Entries) {
		path := filepath.Join(dir, fmt.Sprintf("nvdcve-2.0-%d.xml.gz", g.Year))
		malformed := 0
		if i%5 == 0 {
			malformed = 3
			bad += malformed
		}
		if err := nvdfeed.WriteFileWithMalformed(path, fmt.Sprintf("CVE-%d", g.Year), g.Entries, malformed); err != nil {
			t.Fatalf("WriteFileWithMalformed: %v", err)
		}
		paths = append(paths, path)
	}
	return paths, bad
}

// TestLenientStreamIdentityAndSkipCounts: strict ingestion fails loudly
// on malformed feeds, while lenient LoadFeeds and ImportFeeds at
// workers 1 and 4 skip the malformed entries, hand the count to the
// caller instead of losing it with the internal readers, and answer
// like NewStudy over the lenient serial decode.
func TestLenientStreamIdentityAndSkipCounts(t *testing.T) {
	dir := t.TempDir()
	paths, bad := writeLenientFeeds(t, dir)
	if bad == 0 {
		t.Fatal("fixture wrote no malformed entries")
	}

	if _, err := LoadFeeds(paths, WithParallelism(4)); err == nil {
		t.Error("strict LoadFeeds succeeded over malformed feeds")
	}
	if _, _, err := ImportFeeds(filepath.Join(dir, "strict.db"), paths, WithParallelism(4)); err == nil {
		t.Error("strict ImportFeeds succeeded over malformed feeds")
	}

	want := fullFingerprint(t, &Analysis{
		study:            core.NewStudy(serialDecode(t, paths, nvdfeed.Lenient())),
		malformedSkipped: bad,
	})
	for _, workers := range []int{1, 4} {
		var loadStats, importStats FeedStats
		loaded, err := LoadFeeds(paths, WithParallelism(workers), WithLenient(), WithFeedStats(&loadStats))
		if err != nil {
			t.Fatalf("lenient LoadFeeds(workers=%d): %v", workers, err)
		}
		if _, _, err := ImportFeeds(filepath.Join(dir, "lenient.db"), paths,
			WithParallelism(workers), WithLenient(), WithFeedStats(&importStats)); err != nil {
			t.Fatalf("lenient ImportFeeds(workers=%d): %v", workers, err)
		}
		if loadStats.MalformedSkipped != bad || importStats.MalformedSkipped != bad {
			t.Errorf("workers %d: skip counts = load %d / import %d, want %d",
				workers, loadStats.MalformedSkipped, importStats.MalformedSkipped, bad)
		}
		if loaded.ValidCount() != 1887 {
			t.Errorf("workers %d: lenient load valid = %d, want 1887", workers, loaded.ValidCount())
		}
		if !bytes.Equal(fullFingerprint(t, loaded), want) {
			t.Errorf("workers %d: lenient tables differ from NewStudy over the serial decode", workers)
		}
	}
}

// TestImportFeedsWorkerIdentity asserts the SQL import persists
// byte-identical database files at workers 1 and 4.
func TestImportFeedsWorkerIdentity(t *testing.T) {
	dir := t.TempDir()
	feeds, err := GenerateFeeds(filepath.Join(dir, "feeds"), WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	var want []byte
	for _, workers := range []int{1, 4} {
		path := filepath.Join(dir, fmt.Sprintf("w%d.db", workers))
		stored, skipped, err := ImportFeeds(path, feeds, WithParallelism(workers))
		if err != nil || stored != 2120 || skipped != 0 {
			t.Fatalf("ImportFeeds(workers=%d): %v, %d stored, %d skipped", workers, err, stored, skipped)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = raw
		} else if !bytes.Equal(raw, want) {
			t.Errorf("workers %d: database differs from workers 1", workers)
		}
	}
}

// TestImportFeedsSyntheticUniverse: ImportFeeds clusters products
// against the WithSyntheticUniverse registry, as LoadFeeds does, so the
// SQL matrix covers the whole universe and agrees with LoadFeeds.
func TestImportFeedsSyntheticUniverse(t *testing.T) {
	dir := t.TempDir()
	feeds, err := GenerateSyntheticFeeds(filepath.Join(dir, "feeds"),
		SyntheticSpec{Entries: 3000, Distros: 16, Seed: 1}, WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateSyntheticFeeds: %v", err)
	}
	uni := WithSyntheticUniverse(16)
	a, err := LoadFeeds(feeds, uni)
	if err != nil {
		t.Fatalf("LoadFeeds: %v", err)
	}
	dbPath := filepath.Join(dir, "s.db")
	snap := filepath.Join(dir, "s.osds")
	if _, _, err := ImportFeeds(dbPath, feeds, uni, WithSnapshot(snap)); err != nil {
		t.Fatalf("ImportFeeds: %v", err)
	}
	cells, err := SQLPairwiseShared(dbPath)
	if err != nil {
		t.Fatalf("SQLPairwiseShared: %v", err)
	}
	pairs := a.PairwiseOverlaps()
	if len(cells) != 120 || len(pairs) != 120 {
		t.Fatalf("SQL matrix has %d cells, LoadFeeds %d pairs; want 120", len(cells), len(pairs))
	}
	for i, c := range cells {
		if p := pairs[i]; c.A != p.A || c.B != p.B || c.Shared != p.All {
			t.Errorf("cell %d: SQL %s-%s=%d, LoadFeeds %s-%s=%d", i, c.A, c.B, c.Shared, p.A, p.B, p.All)
		}
	}
	fromDB, err := LoadDatabase(dbPath, uni)
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	fromSnap, err := LoadSnapshot(snap)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	defer fromSnap.Close()
	if fromDB.ValidCount() != a.ValidCount() || fromSnap.ValidCount() != a.ValidCount() {
		t.Errorf("valid: LoadDatabase %d, teed snapshot %d, LoadFeeds %d",
			fromDB.ValidCount(), fromSnap.ValidCount(), a.ValidCount())
	}
}

// TestImportFeedsRejectsYearShard: the import stores the whole corpus,
// so a year shard is refused before anything is written.
func TestImportFeedsRejectsYearShard(t *testing.T) {
	dir := t.TempDir()
	feeds, err := GenerateFeeds(filepath.Join(dir, "feeds"), WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	dbPath := filepath.Join(dir, "s.db")
	snap := filepath.Join(dir, "s.osds")
	if _, _, err := ImportFeeds(dbPath, feeds, WithYearShard(1, 2), WithSnapshot(snap)); err == nil {
		t.Fatal("ImportFeeds accepted WithYearShard")
	}
	for _, path := range []string{dbPath, snap} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s written despite the refused shard: %v", path, err)
		}
	}
}
