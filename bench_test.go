package osdiversity

// The benchmark harness: one benchmark per experiment of the paper's
// evaluation (E1-E11, plus the E12 attack extension; README's
// Performance section lists what they measure).
// Each benchmark regenerates its table or figure from the calibrated
// corpus through the real analysis pipeline and asserts the paper's
// numbers, so `go test -bench=.` doubles as the reproduction script.

import (
	"fmt"
	"path/filepath"
	"testing"

	"osdiversity/internal/attack"
	"osdiversity/internal/classify"
	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/nvdfeed"
	"osdiversity/internal/osmap"
	"osdiversity/internal/paperdata"
	"osdiversity/internal/stats"
	"osdiversity/internal/vulndb"
)

var (
	benchStudy         *core.Study
	benchStudyParallel *core.Study
)

func studyForBench(b *testing.B) *core.Study {
	b.Helper()
	if benchStudy == nil {
		c, err := corpus.Generate()
		if err != nil {
			b.Fatalf("corpus.Generate: %v", err)
		}
		benchStudy = core.NewStudy(c.Entries)
	}
	return benchStudy
}

// benchWorkers is the worker count of the parallel benchmarks (the
// acceptance configuration).
const benchWorkers = 4

func studyForBenchParallel(b *testing.B) *core.Study {
	b.Helper()
	if benchStudyParallel == nil {
		c, err := corpus.Generate()
		if err != nil {
			b.Fatalf("corpus.Generate: %v", err)
		}
		benchStudyParallel = core.NewStudy(c.Entries, core.WithParallelism(benchWorkers))
	}
	return benchStudyParallel
}

// BenchmarkTable1Distribution regenerates Table I (E1).
func BenchmarkTable1Distribution(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, distinct := s.ValidityTable()
		if distinct.Valid != paperdata.DistinctValid || len(rows) != osmap.NumDistros {
			b.Fatalf("Table I mismatch: %d distinct", distinct.Valid)
		}
	}
}

// BenchmarkTable2Classification regenerates Table II (E2).
func BenchmarkTable2Classification(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := s.ClassTable()
		for _, row := range rows {
			want := paperdata.ClassTable[row.Distro]
			if row.Kernel != want.Kernel || row.App != want.App {
				b.Fatalf("Table II mismatch at %v", row.Distro)
			}
		}
	}
}

// BenchmarkFigure2Temporal regenerates the Figure 2 series and the
// family-correlation observation (E3).
func BenchmarkFigure2Temporal(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w2k := s.TemporalSeries(osmap.Windows2000)
		w2k3 := s.TemporalSeries(osmap.Windows2003)
		xs, ys, _ := stats.SeriesAlign(w2k, w2k3)
		r, err := stats.Pearson(xs, ys)
		if err != nil || r < 0.2 {
			b.Fatalf("Windows family correlation = %.2f, %v (paper: strongly correlated)", r, err)
		}
	}
}

// BenchmarkTable3PairwiseOverlap regenerates all 165 cells of Table III (E4).
func BenchmarkTable3PairwiseOverlap(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range osmap.AllPairs() {
			want := paperdata.PairTable[p]
			if s.Overlap(p, core.FatServer) != want.All ||
				s.Overlap(p, core.ThinServer) != want.NoApp ||
				s.Overlap(p, core.IsolatedThinServer) != want.Remote {
				b.Fatalf("Table III mismatch at %v", p)
			}
		}
	}
}

// BenchmarkTable4PartBreakdown regenerates Table IV (E5).
func BenchmarkTable4PartBreakdown(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range osmap.AllPairs() {
			got := s.PartBreakdown(p)
			want := paperdata.PartTable[p]
			if got.Kernel != want.Kernel || got.SysSoft != want.SysSoft || got.Driver != want.Driver {
				b.Fatalf("Table IV mismatch at %v", p)
			}
		}
	}
}

// BenchmarkTable5HistoryObserved regenerates Table V (E6).
func BenchmarkTable5HistoryObserved(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, want := range paperdata.PeriodTable {
			got := s.PeriodSplit(p, paperdata.HistoryEndYear)
			if got.History != want.History || got.Observed != want.Observed {
				b.Fatalf("Table V mismatch at %v", p)
			}
		}
	}
}

// BenchmarkFigure3Configurations regenerates Figure 3 (E7).
func BenchmarkFigure3Configurations(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, set := range paperdata.Figure3Sets {
			hist, obs := s.EvaluateConfiguration(set.Members, paperdata.HistoryEndYear)
			want := paperdata.Figure3Expected[set.Name]
			if hist != want.History || obs != want.Observed {
				b.Fatalf("Figure 3 mismatch at %s: %d/%d", set.Name, hist, obs)
			}
		}
	}
}

// BenchmarkTable6Releases regenerates Table VI (E8).
func BenchmarkTable6Releases(b *testing.B) {
	s := studyForBench(b)
	releases := map[string]struct {
		d osmap.Distro
		v string
	}{
		"Debian2.1": {osmap.Debian, "2.1"}, "Debian3.0": {osmap.Debian, "3.0"},
		"Debian4.0": {osmap.Debian, "4.0"}, "RedHat6.2*": {osmap.RedHat, "6.2*"},
		"RedHat4.0": {osmap.RedHat, "4.0"}, "RedHat5.0": {osmap.RedHat, "5.0"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cell, want := range paperdata.ReleaseTable {
			ra, rb := releases[cell.A], releases[cell.B]
			if got := s.ReleaseOverlap(ra.d, ra.v, rb.d, rb.v); got != want {
				b.Fatalf("Table VI mismatch at %s-%s", cell.A, cell.B)
			}
		}
	}
}

// BenchmarkKWiseOverlap regenerates the §IV-B k-wise counts (E9).
func BenchmarkKWiseOverlap(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kwise := s.KWiseProducts(core.FatServer)
		for k, want := range paperdata.KWiseProducts {
			if kwise[k] != want {
				b.Fatalf("k-wise mismatch at %d: %d != %d", k, kwise[k], want)
			}
		}
	}
}

// BenchmarkSelection regenerates the §IV-C replica-set ranking (E10).
func BenchmarkSelection(b *testing.B) {
	s := studyForBench(b)
	window := core.SelectionWindow{ToYear: paperdata.HistoryEndYear}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked := s.RankReplicaSets(osmap.HistoryEligible(), 4, core.OnePerFamily, window)
		if len(ranked) != 12 || ranked[0].Cost != 10 {
			b.Fatalf("selection mismatch: best cost %d", ranked[0].Cost)
		}
	}
}

// BenchmarkFilterReduction regenerates the §IV-E(1) statistic (E11).
func BenchmarkFilterReduction(b *testing.B) {
	s := studyForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.FilterReduction(core.FatServer, core.IsolatedThinServer)
		if r < 48 || r > 64 {
			b.Fatalf("filter reduction = %.0f%%, paper says 56%%", r)
		}
	}
}

// BenchmarkAttackSimulation runs the E12 extension: Monte Carlo
// time-to-compromise of Set1 vs a homogeneous baseline.
func BenchmarkAttackSimulation(b *testing.B) {
	s := studyForBench(b)
	model := attack.NewModel(s, core.IsolatedThinServer)
	homog := attack.Scenario{Name: "homog", F: 1,
		OSes: []osmap.Distro{osmap.Debian, osmap.Debian, osmap.Debian, osmap.Debian}}
	diverse := attack.Scenario{Name: "set1", F: 1,
		OSes: []osmap.Distro{osmap.Windows2003, osmap.Solaris, osmap.Debian, osmap.OpenBSD}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gain, err := model.Gain(homog, diverse, 100)
		if err != nil || gain <= 1.2 {
			b.Fatalf("diversity gain = %.2f, %v", gain, err)
		}
	}
}

// --- parallel engine benchmarks -----------------------------------------
//
// These run the engine at benchWorkers workers. The *Bitset and
// *Uncached variants clear the memo cache every iteration and assert the
// paper numbers; the *Cached variants measure the memoized steady state
// (repeated CLI/benchmark invocations).

// BenchmarkTable1DistributionCached measures the memoized steady state.
func BenchmarkTable1DistributionCached(b *testing.B) {
	s := studyForBenchParallel(b)
	s.ValidityTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, distinct := s.ValidityTable()
		if distinct.Valid != paperdata.DistinctValid {
			b.Fatalf("Table I mismatch: %d distinct", distinct.Valid)
		}
	}
}

// BenchmarkSelectionUncached re-ranks the replica sets from scratch
// every iteration (the window pair matrix is recomputed, not memoized).
func BenchmarkSelectionUncached(b *testing.B) {
	s := studyForBenchParallel(b)
	window := core.SelectionWindow{ToYear: paperdata.HistoryEndYear}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearCache()
		ranked := s.RankReplicaSets(osmap.HistoryEligible(), 4, core.OnePerFamily, window)
		if len(ranked) != 12 || ranked[0].Cost != 10 {
			b.Fatalf("selection mismatch: best cost %d", ranked[0].Cost)
		}
	}
}

// BenchmarkTable1DistributionBitset regenerates Table I from scratch on
// the columnar bitset engine every iteration.
func BenchmarkTable1DistributionBitset(b *testing.B) {
	s := studyForBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearCache()
		_, distinct := s.ValidityTable()
		if distinct.Valid != paperdata.DistinctValid {
			b.Fatalf("Table I mismatch: %d distinct", distinct.Valid)
		}
	}
}

// BenchmarkTable3PairwiseBitset regenerates the Fat-Server pair column
// on the bitset engine.
func BenchmarkTable3PairwiseBitset(b *testing.B) {
	s := studyForBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearCache()
		m := s.PairMatrix(core.FatServer)
		for p, n := range m {
			if n != paperdata.PairTable[p].All {
				b.Fatalf("Table III mismatch at %v", p)
			}
		}
	}
}

// BenchmarkKWiseBitset regenerates the k-wise product counts on the
// bitset engine.
func BenchmarkKWiseBitset(b *testing.B) {
	s := studyForBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearCache()
		kwise := s.KWiseProducts(core.FatServer)
		if kwise[6] != paperdata.KWiseProducts[6] {
			b.Fatalf("k-wise mismatch: %d", kwise[6])
		}
	}
}

// --- 100k-entry synthetic "modern NVD" benchmarks ------------------------
//
// The acceptance workload of the bitset engine: a seeded 100k-entry,
// 32-distro corpus at production volume, queried at benchWorkers
// workers. Each benchmark recomputes from scratch every iteration (memo
// cache cleared).

const (
	synthBenchEntries = 100_000
	synthBenchDistros = 32
	synthBenchSeed    = 1
)

var synthBenchStudy *core.Study

func synthStudy(b *testing.B) *core.Study {
	b.Helper()
	if synthBenchStudy == nil {
		sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
			Entries: synthBenchEntries, Distros: synthBenchDistros,
			Seed: synthBenchSeed, Workers: benchWorkers,
		})
		if err != nil {
			b.Fatalf("GenerateSynthetic: %v", err)
		}
		synthBenchStudy = core.NewStudy(sc.Entries, core.WithRegistry(sc.Registry),
			core.WithParallelism(benchWorkers))
	}
	return synthBenchStudy
}

// BenchmarkTable3PairwiseOverlap100kBitset regenerates every cell of the
// modern Table III — the per-distro totals and the pairwise overlaps,
// all three profiles — from scratch each iteration.
func BenchmarkTable3PairwiseOverlap100kBitset(b *testing.B) {
	s := synthStudy(b)
	ds := s.Distros()
	profiles := core.Profiles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearCache()
		total := 0
		for _, profile := range profiles {
			for _, d := range ds {
				total += s.Total(d, profile)
			}
			for _, n := range s.PairMatrix(profile) {
				total += n
			}
		}
		if total == 0 {
			b.Fatal("empty Table III")
		}
	}
}

// BenchmarkKWise100kBitset regenerates the k-wise product and cluster
// counts over the 100k corpus.
func BenchmarkKWise100kBitset(b *testing.B) {
	s := synthStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearCache()
		products := s.KWiseProducts(core.FatServer)
		clusters := s.KWiseClusters(core.IsolatedThinServer)
		if products[2] == 0 || clusters[2] == 0 {
			b.Fatal("empty k-wise counts")
		}
	}
}

// BenchmarkTotals100kBitset regenerates every per-distro total (3
// profiles x 32 distros).
func BenchmarkTotals100kBitset(b *testing.B) {
	s := synthStudy(b)
	ds := s.Distros()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClearCache()
		total := 0
		for _, profile := range core.Profiles() {
			for _, d := range ds {
				total += s.Total(d, profile)
			}
		}
		if total == 0 {
			b.Fatal("empty totals")
		}
	}
}

// BenchmarkSyntheticGeneration measures the seeded 100k-corpus
// generator itself (rendering on the worker pool).
func BenchmarkSyntheticGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
			Entries: synthBenchEntries, Distros: synthBenchDistros,
			Seed: synthBenchSeed, Workers: benchWorkers,
		})
		if err != nil || len(sc.Entries) != synthBenchEntries {
			b.Fatalf("generate: %v, %d entries", err, len(sc.Entries))
		}
	}
}

// BenchmarkSyntheticStudyConstruction measures ingesting the 100k
// corpus into a Study (digest + year sort) at benchWorkers workers.
func BenchmarkSyntheticStudyConstruction(b *testing.B) {
	sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
		Entries: synthBenchEntries, Distros: synthBenchDistros,
		Seed: synthBenchSeed, Workers: benchWorkers,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(sc.Entries, core.WithRegistry(sc.Registry),
			core.WithParallelism(benchWorkers))
		if s.ValidEntries() == 0 {
			b.Fatal("no valid entries")
		}
	}
}

// BenchmarkStudyConstructionParallel digests the full corpus with the
// ingestion worker pool.
func BenchmarkStudyConstructionParallel(b *testing.B) {
	c, err := corpus.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(c.Entries, core.WithParallelism(benchWorkers))
		if s.ValidEntries() != paperdata.DistinctValid {
			b.Fatal("study mismatch")
		}
	}
}

// BenchmarkCorpusGenerationParallel renders the corpus on the worker
// pool.
func BenchmarkCorpusGenerationParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := corpus.Generate(corpus.WithParallelism(benchWorkers))
		if err != nil || len(c.Entries) != paperdata.TotalCollected {
			b.Fatalf("generate: %v, %d entries", err, len(c.Entries))
		}
	}
}

// BenchmarkFeedReadParallel measures the multi-file decode pipeline over
// the per-year feed set (the LoadFeeds hot path), drained and discarded
// as a constant-memory consumer sees it.
func BenchmarkFeedReadParallel(b *testing.B) {
	benchmarkFeedRead(b, benchWorkers)
}

// BenchmarkFeedReadSerial is the single-goroutine baseline of the same
// workload.
func BenchmarkFeedReadSerial(b *testing.B) {
	benchmarkFeedRead(b, 1)
}

func benchmarkFeedRead(b *testing.B, workers int) {
	b.Helper()
	c, err := corpus.Generate()
	if err != nil {
		b.Fatal(err)
	}
	paths := writeBenchFeeds(b, c.Entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := drainFeedFiles(paths, workers); err != nil || n != len(c.Entries) {
			b.Fatalf("read: %v, %d entries", err, n)
		}
	}
}

// drainFeedFiles streams the feed files and counts their entries.
func drainFeedFiles(paths []string, workers int) (int, error) {
	st := nvdfeed.StreamFiles(paths, nvdfeed.Workers(workers))
	defer st.Close()
	n := 0
	for range st.Entries() {
		n++
	}
	return n, st.Err()
}

// writeBenchFeeds renders entries as per-year feed files, paths in year
// order.
func writeBenchFeeds(b *testing.B, entries []*cve.Entry) []string {
	b.Helper()
	dir := b.TempDir()
	var paths []string
	for _, g := range corpus.SplitByYear(entries) {
		path := filepath.Join(dir, fmt.Sprintf("nvdcve-2.0-%d.xml.gz", g.Year))
		if err := nvdfeed.WriteFile(path, fmt.Sprintf("CVE-%d", g.Year), g.Entries); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// BenchmarkVulnDBLoadParallel measures the parallel-digest, batched
// insert ingestion of the full corpus.
func BenchmarkVulnDBLoadParallel(b *testing.B) {
	c, err := corpus.Generate()
	if err != nil {
		b.Fatal(err)
	}
	classifier := classify.NewClassifier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := vulndb.Create()
		if err != nil {
			b.Fatal(err)
		}
		db.SetParallelism(benchWorkers)
		stored, _, err := db.LoadEntries(c.Entries, classifier)
		if err != nil || stored == 0 {
			b.Fatalf("load: %v, %d stored", err, stored)
		}
	}
}

// BenchmarkCorpusGeneration measures the calibrated generator itself.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := corpus.Generate()
		if err != nil || len(c.Entries) != paperdata.TotalCollected {
			b.Fatalf("generate: %v, %d entries", err, len(c.Entries))
		}
	}
}

// BenchmarkFeedRoundTrip measures the XML write+parse path over the full
// corpus (the ingestion pipeline's hot loop).
func BenchmarkFeedRoundTrip(b *testing.B) {
	c, err := corpus.Generate()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "feed.xml.gz")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nvdfeed.WriteFile(path, "CVE-ALL", c.Entries); err != nil {
			b.Fatal(err)
		}
		if n, err := drainFeedFiles([]string{path}, 1); err != nil || n != len(c.Entries) {
			b.Fatalf("round trip: %v, %d entries", err, n)
		}
	}
}

// BenchmarkStudyConstruction measures digesting the full corpus into a
// Study (clustering, classification, CVSS checks for 2120 entries).
func BenchmarkStudyConstruction(b *testing.B) {
	c, err := corpus.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(c.Entries)
		if s.ValidEntries() != paperdata.DistinctValid {
			b.Fatal("study mismatch")
		}
	}
}

// warmStartFixture writes the 100k synthetic corpus as per-year feeds
// plus its columnar snapshot, once per process (the feed and snapshot
// warm-start benchmarks measure boots over the identical corpus).
var warmStartFix struct {
	paths []string
	snap  string
	err   error
}

func warmStartFixture(b *testing.B) (paths []string, snapPath string) {
	b.Helper()
	if warmStartFix.paths == nil && warmStartFix.err == nil {
		dir, err := fixtureDir("osdiv-warmstart-*")
		if err != nil {
			warmStartFix.err = err
		} else {
			spec := SyntheticSpec{
				Entries: synthBenchEntries, Distros: synthBenchDistros, Seed: synthBenchSeed,
			}
			warmStartFix.snap = filepath.Join(dir, "warm.osds")
			warmStartFix.paths, warmStartFix.err = GenerateSyntheticFeeds(dir, spec, WithParallelism(benchWorkers))
			if warmStartFix.err == nil {
				_, warmStartFix.err = LoadFeeds(warmStartFix.paths,
					WithParallelism(benchWorkers),
					WithSyntheticUniverse(synthBenchDistros),
					WithSnapshot(warmStartFix.snap))
			}
		}
	}
	if warmStartFix.err != nil {
		b.Fatalf("warm-start fixture: %v", warmStartFix.err)
	}
	return warmStartFix.paths, warmStartFix.snap
}

// BenchmarkWarmStart100kFeed is the cold boot: stream-ingest and digest
// the 100k-entry feed set into a query-ready analysis.
func BenchmarkWarmStart100kFeed(b *testing.B) {
	paths, _ := warmStartFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := LoadFeeds(paths, WithParallelism(benchWorkers),
			WithSyntheticUniverse(synthBenchDistros))
		if err != nil || a.ValidCount() == 0 {
			b.Fatalf("LoadFeeds: %v", err)
		}
	}
}

// BenchmarkWarmStart100kSnapshot boots the same corpus from its
// snapshot file: checksum, validate, adopt the columns zero-copy.
func BenchmarkWarmStart100kSnapshot(b *testing.B) {
	benchmarkSnapshotWarmStart(b)
}

// BenchmarkSnapshotWarmStart is the perf gate's name for the snapshot
// boot (BENCH_core.json pins it against BenchmarkWarmStart100kFeed).
func BenchmarkSnapshotWarmStart(b *testing.B) {
	benchmarkSnapshotWarmStart(b)
}

func benchmarkSnapshotWarmStart(b *testing.B) {
	_, snapPath := warmStartFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := LoadSnapshot(snapPath, WithParallelism(benchWorkers))
		if err != nil || a.ValidCount() == 0 {
			b.Fatalf("LoadSnapshot: %v", err)
		}
		a.Close()
	}
}
