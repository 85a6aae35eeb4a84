package vulndb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"osdiversity/internal/classify"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
	"osdiversity/internal/relstore"
)

// TestLoadEntriesParallelIdenticalDB: LoadEntries at workers 1 and 4,
// in one call and split into batches of 1, 7 and 512, must save the
// bytes the per-row InsertEntry oracle saves — over the calibrated
// corpus and over a 16-distro synthetic corpus, whose universe and
// unclustered entries exercise the registry and the skip path.
func TestLoadEntriesParallelIdenticalDB(t *testing.T) {
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
		Entries: 3000, Distros: 16, Seed: 7, Workers: 4,
	})
	if err != nil {
		t.Fatalf("GenerateSynthetic: %v", err)
	}
	classifier := classify.NewClassifier()
	dir := t.TempDir()
	save := func(db *DB) []byte {
		path := filepath.Join(dir, "study.db")
		if err := db.Save(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	for _, tc := range []struct {
		name     string
		registry *osmap.Registry
		entries  []*cve.Entry
	}{
		{"calibrated", osmap.NewRegistry(), c.Entries},
		{"synthetic16", sc.Registry, sc.Entries},
	} {
		oracle, err := CreateForRegistry(tc.registry)
		if err != nil {
			t.Fatal(err)
		}
		wantStored, wantSkipped, err := oracle.insertAll(tc.entries, classifier)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		if wantStored == 0 {
			t.Fatalf("%s: oracle stored nothing", tc.name)
		}
		want := save(oracle)
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{len(tc.entries), 1, 7, 512} {
				db, err := CreateForRegistry(tc.registry)
				if err != nil {
					t.Fatal(err)
				}
				db.SetParallelism(workers)
				var stored, skipped int
				for lo := 0; lo < len(tc.entries); lo += batch {
					n, s, err := db.LoadEntries(tc.entries[lo:min(lo+batch, len(tc.entries))], classifier)
					if err != nil {
						t.Fatalf("%s workers %d batch %d: LoadEntries: %v", tc.name, workers, batch, err)
					}
					stored, skipped = stored+n, skipped+s
				}
				if stored != wantStored || skipped != wantSkipped {
					t.Errorf("%s workers %d batch %d: stored/skipped %d/%d, oracle %d/%d",
						tc.name, workers, batch, stored, skipped, wantStored, wantSkipped)
				}
				if !bytes.Equal(save(db), want) {
					t.Errorf("%s workers %d batch %d: database differs from the InsertEntry oracle",
						tc.name, workers, batch)
				}
			}
		}
	}
}

// TestInsertRowsValidation covers the batch API's error paths.
func TestInsertRowsValidation(t *testing.T) {
	db, err := Create()
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := relstore.InsertRows(db.Store(), "no_such_table", []string{"x"},
		[][]relstore.Value{{relstore.Int(1)}}); err == nil {
		t.Error("InsertRows accepted a missing table")
	}
	if err := relstore.InsertRows(db.Store(), "product", []string{"nope"},
		[][]relstore.Value{{relstore.Int(1)}}); err == nil {
		t.Error("InsertRows accepted a missing column")
	}
	if err := relstore.InsertRows(db.Store(), "product", []string{"id", "part"},
		[][]relstore.Value{{relstore.Int(1)}}); err == nil {
		t.Error("InsertRows accepted a short row")
	}
	if err := relstore.InsertRows(db.Store(), "product", nil, nil); err != nil {
		t.Errorf("InsertRows empty batch: %v", err)
	}
}

// TestLoadEntriesRefusesUnstorableTimestamps: a TIMESTAMP cell holds
// int64 nanoseconds, so an entry published outside [1678-01-01,
// 2262-04-11] would read back as another instant after Save and Load.
// LoadEntries refuses it with an error naming the CVE and stores none
// of its rows, keeping the entries before it; the range's two ends
// survive the file round trip exactly.
func TestLoadEntriesRefusesUnstorableTimestamps(t *testing.T) {
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	classifier := classify.NewClassifier()
	for _, when := range []time.Time{
		time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1677, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2262, 4, 11, 0, 0, 1, 0, time.UTC),
	} {
		db, err := Create()
		if err != nil {
			t.Fatal(err)
		}
		bad := *c.Entries[2]
		bad.Published = when
		stored, _, err := db.LoadEntries([]*cve.Entry{c.Entries[0], c.Entries[1], &bad, c.Entries[3]}, classifier)
		if err == nil || !strings.Contains(err.Error(), bad.ID.String()) {
			t.Errorf("published %s: LoadEntries error %v, want one naming %s", when, err, bad.ID)
		}
		if n, err := db.Store().QueryInt(`SELECT COUNT(*) FROM vulnerability`); stored != 2 || n != 2 || err != nil {
			t.Errorf("published %s: stored %d, table holds %d rows (%v), want the 2 entries before it", when, stored, n, err)
		}
		if n, err := db.Store().QueryInt(`SELECT COUNT(*) FROM os_vuln WHERE vuln_id > 2`); n != 0 || err != nil {
			t.Errorf("published %s: %d os_vuln rows of the refused entry (%v)", when, n, err)
		}
	}

	path := filepath.Join(t.TempDir(), "ends.db")
	ends := []time.Time{
		time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2262, 4, 11, 0, 0, 0, 0, time.UTC),
	}
	db, err := Create()
	if err != nil {
		t.Fatal(err)
	}
	for i, when := range ends {
		e := *c.Entries[i]
		e.Published = when
		if _, _, err := db.LoadEntries([]*cve.Entry{&e}, classifier); err != nil {
			t.Fatalf("published %s: %v", when, err)
		}
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Store().Query(`SELECT published FROM vulnerability ORDER BY id`)
	if err != nil || len(res.Rows) != len(ends) {
		t.Fatalf("published after Load: %v (%v)", res, err)
	}
	for i, when := range ends {
		if got := res.Rows[i][0].AsTime(); !got.Equal(when) {
			t.Errorf("published %s reads back as %s after Save and Load", when, got)
		}
	}
}
