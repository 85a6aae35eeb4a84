package vulndb

import (
	"reflect"
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/relstore"
)

// studyMatrix renders a Study's FatServer pairwise overlaps in the
// shape SharedMatrix returns, for byte-identity comparison.
func studyMatrix(s *core.Study) []PairShared {
	pairs := s.Pairs()
	out := make([]PairShared, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, PairShared{
			A: p.A.String(), B: p.B.String(),
			Shared: s.Overlap(p, core.FatServer),
		})
	}
	return out
}

// TestSharedMatrixMatchesStudyCalibrated: the SQL Table III matrix is
// byte-identical to the in-memory Study's pairwise output on the
// calibrated corpus, at workers 1 and 4. The oracle executor's leg of
// this identity lives in relstore's TestFigure1MatrixMatchesOracle.
func TestSharedMatrixMatchesStudyCalibrated(t *testing.T) {
	db, c := loadedDB(t)
	want := studyMatrix(core.NewStudy(c.Entries))
	for _, workers := range []int{1, 4} {
		db.SetParallelism(workers)
		got, err := db.SharedMatrix()
		if err != nil {
			t.Fatalf("SharedMatrix(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SQL matrix diverges from Study (workers=%d):\nsql   %v\nstudy %v",
				workers, got, want)
		}
	}

	// Spot-check: the grouped matrix agrees with the per-pair query.
	for _, cell := range []int{0, 7, len(want) - 1} {
		n, err := db.SharedCount(want[cell].A, want[cell].B)
		if err != nil {
			t.Fatalf("SharedCount(%s, %s): %v", want[cell].A, want[cell].B, err)
		}
		if n != want[cell].Shared {
			t.Errorf("SharedCount(%s, %s) = %d, matrix %d",
				want[cell].A, want[cell].B, n, want[cell].Shared)
		}
	}
}

// TestSharedMatrixMatchesStudySynthetic: same identity over a seeded
// scaled-down synthetic "modern NVD" corpus and its wider universe.
func TestSharedMatrixMatchesStudySynthetic(t *testing.T) {
	entries := matrixTestEntries
	if testing.Short() {
		entries = matrixTestEntries / 4
	}
	sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
		Entries: entries, Distros: 16, Seed: 7, Workers: 4,
	})
	if err != nil {
		t.Fatalf("GenerateSynthetic: %v", err)
	}
	db, err := CreateForRegistry(sc.Registry)
	if err != nil {
		t.Fatalf("CreateForRegistry: %v", err)
	}
	db.SetParallelism(4)
	stored, _, err := db.LoadEntries(sc.Entries, classify.NewClassifier())
	if err != nil {
		t.Fatalf("LoadEntries: %v", err)
	}
	if stored == 0 {
		t.Fatal("synthetic corpus stored nothing")
	}
	s := core.NewStudy(sc.Entries, core.WithRegistry(sc.Registry), core.WithParallelism(4))
	want := studyMatrix(s)
	for _, workers := range []int{1, 4} {
		db.SetParallelism(workers)
		got, err := db.SharedMatrix()
		if err != nil {
			t.Fatalf("SharedMatrix(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("synthetic SQL matrix diverges from Study at workers=%d", workers)
		}
	}
}

// TestSharedCountQuoteBearingName: an OS name containing quotes flows
// through the parameterized query path instead of breaking the SQL (the
// old fmt.Sprintf interpolation produced a parse error — or worse).
func TestSharedCountQuoteBearingName(t *testing.T) {
	db, _ := loadedDB(t)
	hostile := `O'Brien''s BSD; DROP TABLE os --`
	err := relstore.InsertRow(db.Store(), "os",
		[]string{"id", "name", "family", "first_release"},
		[]relstore.Value{
			relstore.Int(99), relstore.Text(hostile),
			relstore.Text("BSD"), relstore.Int(1999),
		})
	if err != nil {
		t.Fatalf("seed quoted os row: %v", err)
	}
	n, err := db.SharedCount(hostile, "NetBSD")
	if err != nil {
		t.Fatalf("SharedCount with quoted name: %v", err)
	}
	if n != 0 {
		t.Fatalf("quoted-name SharedCount = %d, want 0", n)
	}
	// The real pair still answers correctly afterwards.
	if _, err := db.SharedCount("OpenBSD", "NetBSD"); err != nil {
		t.Fatalf("SharedCount after quoted query: %v", err)
	}
	// And the matrix includes the new OS with zero overlaps everywhere.
	m, err := db.SharedMatrix()
	if err != nil {
		t.Fatalf("SharedMatrix with quoted os row: %v", err)
	}
	found := false
	for _, cell := range m {
		if cell.A == hostile || cell.B == hostile {
			found = true
			if cell.Shared != 0 {
				t.Fatalf("quoted OS shares %d vulnerabilities", cell.Shared)
			}
		}
	}
	if !found {
		t.Fatal("quoted OS missing from matrix")
	}
}
