package vulndb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

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
