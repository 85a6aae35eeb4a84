//go:build !race

// The database footprint budget. Race builds skip it: the detector's
// shadow memory distorts every heap measurement.

package vulndb

import (
	"runtime"
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/corpus"
)

// footprintBudget bounds the live heap the 100k database keeps.
const footprintBudget = 170 << 20

// TestDatabaseFootprint100k: the database over the seeded 100k-entry,
// 32-distro synthetic corpus retains at most footprintBudget bytes once
// the entries it was loaded from are unreachable.
func TestDatabaseFootprint100k(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := footprintDB(t)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(db)
	t.Logf("100k database retains %.1f MiB", float64(retained)/(1<<20))
	if retained > footprintBudget {
		t.Errorf("100k database retains %.1f MiB, budget %d MiB", float64(retained)/(1<<20), footprintBudget>>20)
	}
}

// footprintDB loads the corpus and returns only the database, so the
// entries are garbage once it returns.
func footprintDB(t *testing.T) *DB {
	t.Helper()
	sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
		Entries: 100_000, Distros: 32, Seed: 1, Workers: 2,
	})
	if err != nil {
		t.Fatalf("GenerateSynthetic: %v", err)
	}
	db, err := CreateForRegistry(sc.Registry)
	if err != nil {
		t.Fatal(err)
	}
	db.SetParallelism(2)
	if _, _, err := db.LoadEntries(sc.Entries, classify.NewClassifier()); err != nil {
		t.Fatalf("LoadEntries: %v", err)
	}
	return db
}
