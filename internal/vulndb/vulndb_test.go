package vulndb

import (
	"path/filepath"
	"testing"
	"time"

	"osdiversity/internal/classify"
	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/nvdfeed"
	"osdiversity/internal/osmap"
	"osdiversity/internal/paperdata"
)

func loadedDB(t *testing.T) (*DB, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	db, err := Create()
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	stored, skipped, err := db.LoadEntries(c.Entries, classify.NewClassifier())
	if err != nil {
		t.Fatalf("LoadEntries: %v", err)
	}
	if skipped != 0 {
		t.Fatalf("calibrated corpus skipped %d entries", skipped)
	}
	if stored != len(c.Entries) {
		t.Fatalf("stored %d of %d", stored, len(c.Entries))
	}
	return db, c
}

func TestSQLAggregationsMatchPaper(t *testing.T) {
	db, _ := loadedDB(t)
	counts, err := db.CountByOS()
	if err != nil {
		t.Fatalf("CountByOS: %v", err)
	}
	for _, d := range osmap.Distros() {
		if counts[d.String()] != paperdata.ValidCounts[d] {
			t.Errorf("SQL count %v = %d, paper %d", d, counts[d.String()], paperdata.ValidCounts[d])
		}
	}
	shared, err := db.SharedCount("OpenBSD", "NetBSD")
	if err != nil {
		t.Fatalf("SharedCount: %v", err)
	}
	if want := paperdata.PairTable[osmap.MakePair(osmap.OpenBSD, osmap.NetBSD)].All; shared != want {
		t.Errorf("SQL shared OpenBSD-NetBSD = %d, paper %d", shared, want)
	}
}

func TestRoundTripThroughSchema(t *testing.T) {
	db, c := loadedDB(t)
	back, err := db.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(back) != len(c.Entries) {
		t.Fatalf("round trip lost entries: %d of %d", len(back), len(c.Entries))
	}
	// The study over the reconstructed entries must equal the study over
	// the originals on the headline tables.
	s := core.NewStudy(back)
	for _, p := range osmap.AllPairs() {
		want := paperdata.PairTable[p]
		if got := s.Overlap(p, core.FatServer); got != want.All {
			t.Errorf("%v All after round trip = %d, want %d", p, got, want.All)
		}
		if got := s.Overlap(p, core.IsolatedThinServer); got != want.Remote {
			t.Errorf("%v Remote after round trip = %d, want %d", p, got, want.Remote)
		}
	}
}

func TestFullPipelineFeedsToStudy(t *testing.T) {
	// The complete reproduction pipeline: calibrated corpus → NVD XML
	// feeds on disk → streaming parse → Figure 1 SQL schema → entry
	// reconstruction → analysis — then spot-check the paper's numbers.
	c, err := corpus.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Write one feed per publication year, like NVD distributes them.
	byYear := make(map[int][]*cve.Entry)
	for _, e := range c.Entries {
		byYear[e.Year()] = append(byYear[e.Year()], e)
	}
	var paths []string
	for year, entries := range byYear {
		cve.SortEntries(entries)
		path := filepath.Join(dir, feedName(year))
		if err := nvdfeed.WriteFile(path, feedLabel(year), entries); err != nil {
			t.Fatalf("WriteFile(%d): %v", year, err)
		}
		paths = append(paths, path)
	}

	db, err := Create()
	if err != nil {
		t.Fatal(err)
	}
	classifier := classify.NewClassifier()
	total := 0
	for _, path := range paths {
		st := nvdfeed.StreamFiles([]string{path})
		var entries []*cve.Entry
		for e := range st.Entries() {
			entries = append(entries, e)
		}
		if err := st.Err(); err != nil {
			t.Fatalf("StreamFiles(%s): %v", path, err)
		}
		stored, _, err := db.LoadEntries(entries, classifier)
		if err != nil {
			t.Fatal(err)
		}
		total += stored
	}
	if total != len(c.Entries) {
		t.Fatalf("pipeline stored %d of %d entries", total, len(c.Entries))
	}

	back, err := db.Entries()
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStudy(back)
	rows, distinct := s.ValidityTable()
	if distinct.Valid != paperdata.DistinctValid {
		t.Errorf("distinct valid after full pipeline = %d, want %d", distinct.Valid, paperdata.DistinctValid)
	}
	for _, row := range rows {
		if row.Valid != paperdata.ValidCounts[row.Distro] {
			t.Errorf("%v after full pipeline = %d, want %d", row.Distro, row.Valid, paperdata.ValidCounts[row.Distro])
		}
	}
	hist, obs := s.EvaluateConfiguration(paperdata.Figure3Sets[1].Members, paperdata.HistoryEndYear)
	want := paperdata.Figure3Expected["Set1"]
	if hist != want.History || obs != want.Observed {
		t.Errorf("Set1 after full pipeline = %d/%d, want %d/%d", hist, obs, want.History, want.Observed)
	}
}

func TestSaveOpen(t *testing.T) {
	db, _ := loadedDB(t)
	path := filepath.Join(t.TempDir(), "study.db")
	if err := db.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	counts, err := back.CountByOS()
	if err != nil {
		t.Fatal(err)
	}
	if counts["Debian"] != paperdata.ValidCounts[osmap.Debian] {
		t.Errorf("reloaded Debian count = %d", counts["Debian"])
	}
	// The reloaded DB accepts further inserts (intern tables rebuilt).
	extra := &cve.Entry{
		ID:        cve.MustID("CVE-2010-9998"),
		Published: mustTime(t),
		Summary:   "Integer overflow in the kernel memory management allows remote attackers to execute arbitrary code.",
		Products:  []cpe.Name{mustCPE(t, "cpe:/o:debian:debian_linux:5.0")},
	}
	stored, _, err := back.LoadEntries([]*cve.Entry{extra}, classify.NewClassifier())
	if err != nil || stored != 1 {
		t.Fatalf("insert after reload: %d stored, %v", stored, err)
	}
	counts, err = back.CountByOS()
	if err != nil {
		t.Fatal(err)
	}
	if counts["Debian"] != paperdata.ValidCounts[osmap.Debian]+1 {
		t.Errorf("post-reload insert not visible: Debian = %d", counts["Debian"])
	}
}

func mustTime(t *testing.T) time.Time {
	t.Helper()
	return time.Date(2010, time.March, 3, 12, 0, 0, 0, time.UTC)
}

func mustCPE(t *testing.T, uri string) cpe.Name {
	t.Helper()
	n, err := cpe.Parse(uri)
	if err != nil {
		t.Fatalf("cpe.Parse(%q): %v", uri, err)
	}
	return n
}

func TestSkipsUnclusteredEntries(t *testing.T) {
	db, err := Create()
	if err != nil {
		t.Fatal(err)
	}
	exotic := &cve.Entry{
		ID:        cve.MustID("CVE-2010-9999"),
		Published: mustTime(t),
		Summary:   "Flaw in an exotic platform.",
		Products:  nil,
	}
	exotic.Products = append(exotic.Products, mustCPE(t, "cpe:/o:acme:exotic_rtos:1.0"))
	stored, skipped, err := db.LoadEntries([]*cve.Entry{exotic}, classify.NewClassifier())
	if err != nil {
		t.Fatal(err)
	}
	if stored != 0 || skipped != 1 {
		t.Errorf("stored/skipped = %d/%d, want 0/1", stored, skipped)
	}
}

func feedName(year int) string {
	return "nvdcve-2.0-" + itoa(year) + ".xml.gz"
}

func feedLabel(year int) string { return "CVE-" + itoa(year) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
