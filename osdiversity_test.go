package osdiversity

import (
	"path/filepath"
	"testing"
)

var analysisCache *Analysis

func calibrated(t testing.TB) *Analysis {
	t.Helper()
	if analysisCache == nil {
		a, err := LoadCalibrated()
		if err != nil {
			t.Fatalf("LoadCalibrated: %v", err)
		}
		analysisCache = a
	}
	return analysisCache
}

func TestOSNames(t *testing.T) {
	names := calibrated(t).OSNames()
	if len(names) != 11 || names[0] != "OpenBSD" || names[10] != "Windows2008" {
		t.Fatalf("OSNames = %v", names)
	}
}

func TestEndToEndFeedsAndDatabase(t *testing.T) {
	dir := t.TempDir()
	feeds, err := GenerateFeeds(filepath.Join(dir, "feeds"))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	if len(feeds) < 14 {
		t.Fatalf("generated %d feed files, expected one per year", len(feeds))
	}
	fromFeeds, err := LoadFeeds(feeds)
	if err != nil {
		t.Fatalf("LoadFeeds: %v", err)
	}
	if fromFeeds.ValidCount() != 1887 {
		t.Errorf("feeds analysis valid = %d, want 1887", fromFeeds.ValidCount())
	}

	dbPath := filepath.Join(dir, "study.db")
	stored, skipped, err := ImportFeeds(dbPath, feeds)
	if err != nil {
		t.Fatalf("ImportFeeds: %v", err)
	}
	if skipped != 0 || stored == 0 {
		t.Errorf("import stored/skipped = %d/%d", stored, skipped)
	}
	fromDB, err := LoadDatabase(dbPath)
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	if fromDB.ValidCount() != 1887 {
		t.Errorf("database analysis valid = %d, want 1887", fromDB.ValidCount())
	}

	// The SQL-path Table III matrix agrees cell-for-cell with the
	// Study's All column over the same database.
	cells, err := SQLPairwiseShared(dbPath, WithParallelism(4))
	if err != nil {
		t.Fatalf("SQLPairwiseShared: %v", err)
	}
	overlaps := fromDB.PairwiseOverlaps()
	if len(cells) != len(overlaps) {
		t.Fatalf("SQL matrix has %d pairs, Study %d", len(cells), len(overlaps))
	}
	for i, cell := range cells {
		row := overlaps[i]
		if cell.A != row.A || cell.B != row.B || cell.Shared != row.All {
			t.Errorf("SQL pair %d = %s-%s %d, Study %s-%s %d",
				i, cell.A, cell.B, cell.Shared, row.A, row.B, row.All)
		}
	}
}

func TestAnalysisTables(t *testing.T) {
	a := calibrated(t)
	rows, distinct := a.ValidityTable()
	if len(rows) != 11 || distinct.Valid != 1887 {
		t.Errorf("validity table: %d rows, distinct %d", len(rows), distinct.Valid)
	}
	classes, shares := a.ClassTable()
	if len(classes) != 11 {
		t.Errorf("class table rows = %d", len(classes))
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 99.5 || sum > 100.5 {
		t.Errorf("class shares sum = %.1f", sum)
	}
	overlaps := a.PairwiseOverlaps()
	if len(overlaps) != 55 {
		t.Fatalf("pairwise overlaps = %d rows", len(overlaps))
	}
	for _, row := range overlaps {
		if row.A == "Windows2000" && row.B == "Windows2003" {
			if row.All != 253 || row.NoApp != 116 || row.Remote != 81 {
				t.Errorf("W2k-W2k3 = %d/%d/%d, paper 253/116/81", row.All, row.NoApp, row.Remote)
			}
		}
	}
	parts := a.PartBreakdowns()
	if len(parts) != 34 {
		t.Errorf("part rows = %d, paper prints 34", len(parts))
	}
	if parts[0].Total < parts[len(parts)-1].Total {
		t.Error("part rows not sorted descending")
	}
	periods := a.HistoryObserved(2005)
	if len(periods) != 28 {
		t.Errorf("period cells = %d, want 28", len(periods))
	}
}

func TestAnalysisSelectionAndFigures(t *testing.T) {
	a := calibrated(t)
	ranked := a.SelectReplicaSets(4, true, 2005)
	if len(ranked) != 12 || ranked[0].Cost != 10 {
		t.Fatalf("one-per-family ranking: %d sets, best %d", len(ranked), ranked[0].Cost)
	}
	hist, obs, err := a.EvaluateConfiguration([]string{"Windows2003", "Solaris", "Debian", "OpenBSD"}, 2005)
	if err != nil || hist != 10 || obs != 1 {
		t.Errorf("Set1 = %d/%d, %v; want 10/1", hist, obs, err)
	}
	hist, obs, err = a.EvaluateConfiguration([]string{"Debian"}, 2005)
	if err != nil || hist != 16 || obs != 9 {
		t.Errorf("Debian baseline = %d/%d, %v; want 16/9", hist, obs, err)
	}
	if _, _, err := a.EvaluateConfiguration([]string{"HaikuOS"}, 2005); err == nil {
		t.Error("unknown OS accepted")
	}
	series, err := a.TemporalSeries("Solaris")
	if err != nil || len(series) == 0 {
		t.Errorf("TemporalSeries: %v, %d years", err, len(series))
	}
	kwise := a.KWiseProducts()
	if kwise[9] != 1 || kwise[6] != 3 {
		t.Errorf("kwise = %v", kwise)
	}
	top := a.MostShared(1)
	if len(top) != 1 || top[0] != "CVE-2008-4609" {
		t.Errorf("MostShared = %v", top)
	}
	if r := a.FilterReduction(); r < 45 || r > 70 {
		t.Errorf("FilterReduction = %.1f", r)
	}
	n, err := a.ReleaseOverlap("Debian", "4.0", "RedHat", "5.0")
	if err != nil || n != 1 {
		t.Errorf("ReleaseOverlap = %d, %v; want 1", n, err)
	}
}

func TestAnalysisAttack(t *testing.T) {
	a := calibrated(t)
	sum, err := a.SimulateAttack("set1", []string{"Windows2003", "Solaris", "Debian", "OpenBSD"}, 1, 50)
	if err != nil {
		t.Fatalf("SimulateAttack: %v", err)
	}
	if sum.MeanTTC <= 0 {
		t.Errorf("attack summary: %+v", sum)
	}
	gain, err := a.DiversityGain("Debian", []string{"Windows2003", "Solaris", "Debian", "OpenBSD"}, 1, 50)
	if err != nil || gain <= 1.0 {
		t.Errorf("DiversityGain = %.2f, %v", gain, err)
	}
	if _, err := a.SimulateAttack("bad", []string{"Debian"}, 1, 10); err == nil {
		t.Error("short scenario accepted")
	}
}

func TestSyntheticFacade(t *testing.T) {
	spec := SyntheticSpec{Entries: 4000, Distros: 16, Seed: 3}
	a, err := LoadSynthetic(spec, WithParallelism(4))
	if err != nil {
		t.Fatalf("LoadSynthetic: %v", err)
	}
	names := a.OSNames()
	if len(names) != 16 {
		t.Fatalf("universe has %d names, want 16", len(names))
	}
	pairs := a.PairwiseOverlaps()
	if want := 16 * 15 / 2; len(pairs) != want {
		t.Fatalf("PairwiseOverlaps has %d rows, want %d", len(pairs), want)
	}
	if a.ValidCount() == 0 {
		t.Fatal("synthetic analysis has no valid entries")
	}
}

func TestSyntheticFeedRoundTrip(t *testing.T) {
	spec := SyntheticSpec{Entries: 1500, Distros: 16, Seed: 9, FromYear: 2010, ToYear: 2014}
	dir := t.TempDir()
	paths, err := GenerateSyntheticFeeds(dir, spec, WithParallelism(2))
	if err != nil {
		t.Fatalf("GenerateSyntheticFeeds: %v", err)
	}
	if len(paths) != 5 {
		t.Fatalf("wrote %d feeds, want 5 (one per year)", len(paths))
	}
	direct, err := LoadSynthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadFeeds(paths, WithSyntheticUniverse(spec.Distros), WithParallelism(2))
	if err != nil {
		t.Fatalf("LoadFeeds(synthetic): %v", err)
	}
	if direct.ValidCount() != reloaded.ValidCount() {
		t.Fatalf("valid counts differ: direct %d, reloaded %d", direct.ValidCount(), reloaded.ValidCount())
	}
	dp, rp := direct.PairwiseOverlaps(), reloaded.PairwiseOverlaps()
	for i := range dp {
		if dp[i] != rp[i] {
			t.Fatalf("pair %s-%s differs after XML round trip", dp[i].A, dp[i].B)
		}
	}
}
