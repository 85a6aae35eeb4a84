package relstore_test

import (
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/relstore"
	"osdiversity/internal/vulndb"
)

// figure1MatrixSQL is vulndb's Table III matrix query: distinct valid
// vulnerabilities shared by each OS pair over the Figure 1 schema.
const figure1MatrixSQL = `
	SELECT oa.name, ob.name, COUNT(DISTINCT x.vuln_id)
	FROM os_vuln x
	JOIN security_protection sp ON x.vuln_id = sp.vuln_id
	JOIN os_vuln y ON x.vuln_id = y.vuln_id
	JOIN os oa ON x.os_id = oa.id
	JOIN os ob ON y.os_id = ob.id
	WHERE sp.validity = 'Valid' AND oa.id < ob.id
	GROUP BY oa.name, ob.name`

// TestFigure1MatrixMatchesOracle: over the Figure 1 schema loaded with
// the calibrated corpus, the oracle executor's Table III matrix equals
// the in-memory Study's pairwise overlaps, and the planner (Query, at
// workers 1 and 4) answers the oracle's rows byte for byte.
func TestFigure1MatrixMatchesOracle(t *testing.T) {
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	db, err := vulndb.Create()
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, _, err := db.LoadEntries(c.Entries, classify.NewClassifier()); err != nil {
		t.Fatalf("LoadEntries: %v", err)
	}
	oracle, err := db.Store().QueryNaive(figure1MatrixSQL)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	got := make(map[[2]string]int64, len(oracle.Rows))
	for _, row := range oracle.Rows {
		got[[2]string{row[0].AsText(), row[1].AsText()}] = row[2].AsInt()
	}
	s := core.NewStudy(c.Entries)
	pairs := s.Pairs()
	for _, p := range pairs {
		key := [2]string{p.A.String(), p.B.String()}
		if want := int64(s.Overlap(p, core.FatServer)); got[key] != want {
			t.Errorf("oracle v(%s, %s) = %d, Study says %d", key[0], key[1], got[key], want)
		}
		delete(got, key)
	}
	if len(got) != 0 {
		t.Errorf("oracle answers pairs the Study does not list: %v", got)
	}

	for _, workers := range []int{1, 4} {
		db.SetParallelism(workers)
		planned, err := db.Store().Query(figure1MatrixSQL)
		if err != nil {
			t.Fatalf("Query(workers=%d): %v", workers, err)
		}
		if !relstore.ResultsEqual(oracle, planned) {
			t.Errorf("planner diverges from the oracle at workers=%d:\noracle  %v\nplanned %v",
				workers, oracle.Rows, planned.Rows)
		}
	}
}

// figure1SaveSHA256 is the digest of the calibrated Figure 1 database's
// gunzipped Save stream, recorded when each cell still laid out one
// field per kind.
const figure1SaveSHA256 = "e4be487d7729383a50a19b8dae5b477976325ee1d6d1c549f89889416214b8fd"

// TestFigure1SaveGolden pins the file format nvdimport writes: the
// calibrated corpus loaded through the Figure 1 schema saves the
// recorded gob bytes. Comparing two saves of one build would pass a
// drift that changes both alike.
func TestFigure1SaveGolden(t *testing.T) {
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	db, err := vulndb.Create()
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, _, err := db.LoadEntries(c.Entries, classify.NewClassifier()); err != nil {
		t.Fatalf("LoadEntries: %v", err)
	}
	if got := relstore.SaveDigest(t, db.Store()); got != figure1SaveSHA256 {
		t.Errorf("Save stream SHA-256 %s, want %s", got, figure1SaveSHA256)
	}
}
