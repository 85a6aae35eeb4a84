// Package osdiversity is the public face of the reproduction of
// "OS Diversity for Intrusion Tolerance: Myth or Reality?" (Garcia,
// Bessani, Gashi, Neves, Obelheiro — DSN 2011).
//
// The package wraps the internal pipeline — calibrated corpus
// generation, NVD 2.0 XML feeds, the embedded SQL store with the paper's
// schema, and the shared-vulnerability analysis — behind a small API of
// plain Go types:
//
//	feeds, _ := osdiversity.GenerateFeeds("feeds/")   // synthetic NVD
//	a, _ := osdiversity.LoadFeeds(feeds)              // parse + analyze
//	for _, row := range a.PairwiseOverlaps() {        // paper Table III
//	    fmt.Println(row.A, row.B, row.All, row.NoApp, row.Remote)
//	}
//	best := a.SelectReplicaSets(4, true, 2005)[0]     // paper §IV-C
//
// Operating systems are identified by their display names (for example
// "OpenBSD", "Windows2003"); Analysis.OSNames lists them.
package osdiversity

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"osdiversity/internal/attack"
	"osdiversity/internal/classify"
	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/nvdfeed"
	"osdiversity/internal/osmap"
	"osdiversity/internal/scenario"
	"osdiversity/internal/snapshot"
	"osdiversity/internal/vulndb"
)

// Option configures feed generation, loading and analysis.
type Option func(*config)

type config struct {
	workers   int
	universe  int // > 0 selects a synthetic n-distro universe for LoadFeeds
	lenient   bool
	feedStats *FeedStats
	snapshot  string // != "" tees a snapshot of the loaded study to this path
	shardIdx  int    // with shardN: 1-based year-range shard to keep
	shardN    int    // total shard count; 0 = unsharded
}

// WithParallelism sets the worker count used throughout the pipeline:
// corpus rendering, feed decoding, database ingestion and the table
// queries. n <= 0 selects GOMAXPROCS; the default (no option) is one
// worker.
func WithParallelism(n int) Option {
	return func(c *config) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.workers = n
	}
}

// WithSyntheticUniverse makes the feed and database loaders and
// ImportFeeds resolve products against the n-distro synthetic registry
// (as written by GenerateSyntheticFeeds) instead of the paper's
// 11-distro registry.
func WithSyntheticUniverse(n int) Option {
	return func(c *config) { c.universe = n }
}

// WithLenient makes the feed loaders skip entries that fail to decode
// or convert instead of failing the whole ingestion. Combine with
// WithFeedStats to account for every dropped entry.
func WithLenient() Option {
	return func(c *config) { c.lenient = true }
}

// FeedStats reports what a feed-loading call silently dropped. Pass one
// through WithFeedStats; it is (re)filled when the call returns.
type FeedStats struct {
	// MalformedSkipped counts entries the lenient reader dropped because
	// they failed to decode or convert (always 0 without WithLenient,
	// where a malformed entry fails the load instead).
	MalformedSkipped int
}

// WithYearShard restricts the loaders LoadFeeds, LoadCalibrated,
// LoadSynthetic and LoadDatabase to year-range shard i of n, 1-based as
// `osdiv serve -shard i/N` spells it: contiguous chunk i-1 of the
// corpus's ascending year groups per corpus.ShardByYear. The n shards
// partition the corpus, so every additive aggregate of a sharded
// analysis merges with its siblings to the full-corpus figure — the
// contract the scatter-gather gateway (internal/gather) is built on.
// Out-of-range i/n fails the load. LoadSnapshot and ImportFeeds reject
// the option: a snapshot holds no entries to split, and an import
// stores the whole corpus (shard it when loading it with LoadDatabase).
func WithYearShard(i, n int) Option {
	return func(c *config) { c.shardIdx, c.shardN = i, n }
}

// WithFeedStats makes LoadFeeds, ImportFeeds and ApplyDelta record
// their skip counters into st, so callers ingesting with WithLenient can
// report how many malformed entries were lost rather than losing the
// count with the internal readers.
func WithFeedStats(st *FeedStats) Option {
	return func(c *config) { c.feedStats = st }
}

func newConfig(opts []Option) config {
	c := config{workers: 1}
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// streamBatch is how many decoded entries drainFeeds hands its sink at
// a time.
const streamBatch = 512

// drainFeeds streams the feed files through the bounded decode pipeline
// (nvdfeed.StreamFiles) into sink, in feed order and in streamBatch
// chunks whose backing array is reused between calls — the one way
// every feed loader ingests. Ingestion memory stays constant however
// large the feed set is. It returns the lenient skip count, also
// recorded in any WithFeedStats.
func (c config) drainFeeds(paths []string, sink func([]*cve.Entry) error) (int, error) {
	skips := &nvdfeed.SkipStats{}
	opts := []nvdfeed.ReaderOption{nvdfeed.Workers(c.workers), nvdfeed.WithSkipStats(skips)}
	if c.lenient {
		opts = append(opts, nvdfeed.Lenient())
	}
	st := nvdfeed.StreamFiles(paths, opts...)
	defer st.Close()
	batch := make([]*cve.Entry, 0, streamBatch)
	for e := range st.Entries() {
		if batch = append(batch, e); len(batch) == streamBatch {
			if err := sink(batch); err != nil {
				return 0, err
			}
			batch = batch[:0]
		}
	}
	if err := st.Err(); err != nil {
		return 0, err
	}
	if err := sink(batch); err != nil {
		return 0, err
	}
	if c.feedStats != nil {
		c.feedStats.MalformedSkipped = skips.Skipped()
	}
	return skips.Skipped(), nil
}

// sharded reports whether WithYearShard was requested at all.
func (c config) sharded() bool { return c.shardN != 0 || c.shardIdx != 0 }

// analyze takes the WithYearShard slice of the whole entry set and
// builds the analysis over it — the tail of every loader that holds the
// corpus's entries at once.
func (c config) analyze(entries []*cve.Entry, source string, malformed int, opts ...core.Option) (*Analysis, error) {
	if c.sharded() {
		if c.shardN < 1 || c.shardIdx < 1 || c.shardIdx > c.shardN {
			return nil, fmt.Errorf("osdiversity: invalid shard %d/%d: need 1 <= i <= n", c.shardIdx, c.shardN)
		}
		entries = corpus.ShardByYear(entries, c.shardIdx-1, c.shardN)
	}
	return c.finishAnalysis(core.NewStudy(entries, append(c.studyOptions(), opts...)...), source, malformed)
}

// registry is the distro universe products resolve against: the
// WithSyntheticUniverse registry, or the paper's 11 distros.
func (c config) registry() *osmap.Registry {
	if c.universe > 0 {
		return osmap.NewSyntheticRegistry(c.universe)
	}
	return osmap.NewRegistry()
}

// studyOptions translates the facade config into core options.
func (c config) studyOptions() []core.Option {
	return []core.Option{core.WithParallelism(c.workers), core.WithRegistry(c.registry())}
}

// GenerateFeeds writes the calibrated synthetic NVD data feeds (one
// gzip-compressed XML file per publication year, like NVD distributes
// them) into dir and returns the file paths. With WithParallelism the
// corpus renders on a worker pool and the per-year files are written
// concurrently.
func GenerateFeeds(dir string, opts ...Option) ([]string, error) {
	cfg := newConfig(opts)
	c, err := corpus.Generate(corpus.WithParallelism(cfg.workers))
	if err != nil {
		return nil, err
	}
	return writeFeedsByYear(dir, c.Entries, cfg.workers)
}

// writeFeedsByYear splits entries into per-year feed files (like NVD
// distributes them), writing up to `workers` files concurrently.
func writeFeedsByYear(dir string, entries []*cve.Entry, workers int) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("osdiversity: %w", err)
	}
	groups := corpus.SplitByYear(entries)
	paths := make([]string, len(groups))
	errs := make([]error, len(groups))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, g := range groups {
		paths[i] = filepath.Join(dir, fmt.Sprintf("nvdcve-2.0-%d.xml.gz", g.Year))
		wg.Add(1)
		go func(i int, g corpus.YearGroup) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = nvdfeed.WriteFile(paths[i], fmt.Sprintf("CVE-%d", g.Year), g.Entries)
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// Analysis answers the paper's questions over one ingested data set.
type Analysis struct {
	study *core.Study

	// Provenance for /corpus and the -json printers: where the corpus
	// came from, when it was built (or snapshotted), and the snapshot
	// digest when warm-started from one. See snapshot.go.
	source           string
	epoch            time.Time
	snapshotDigest   string
	malformedSkipped int

	// snap keeps the mmap'd snapshot alive while its columns back the
	// study; nil for feed-built analyses.
	snap *snapshot.Snapshot
}

// LoadFeeds parses NVD XML feed files (plain or .gz) and builds the
// analysis. Entries flow from the XML tokenizers through bounded
// channels into the incremental Study builder in batches, so the parsed
// entries in memory stay bounded however large the feed set is, and none
// outlives its batch: what stays resident is the Study's per-entry
// digests and its release columns (see core.Builder). With
// WithParallelism files decode concurrently and digestion and queries
// shard across the workers; the tables are byte-identical at any worker
// count. With WithYearShard the stream is collected first, since the
// year split needs every entry.
func LoadFeeds(paths []string, opts ...Option) (*Analysis, error) {
	cfg := newConfig(opts)
	if cfg.sharded() {
		var entries []*cve.Entry
		malformed, err := cfg.drainFeeds(paths, func(batch []*cve.Entry) error {
			entries = append(entries, batch...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return cfg.analyze(entries, "feeds", malformed)
	}
	b := core.NewBuilder(cfg.studyOptions()...)
	malformed, err := cfg.drainFeeds(paths, func(batch []*cve.Entry) error {
		b.Add(batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cfg.finishAnalysis(b.Finish(), "feeds", malformed)
}

// LoadCalibrated builds the analysis directly over the calibrated
// synthetic corpus, skipping the XML round trip.
func LoadCalibrated(opts ...Option) (*Analysis, error) {
	cfg := newConfig(opts)
	c, err := corpus.Generate(corpus.WithParallelism(cfg.workers))
	if err != nil {
		return nil, err
	}
	return cfg.analyze(c.Entries, "calibrated", 0)
}

// SyntheticSpec parameterizes the synthetic "modern NVD" corpus: a
// deterministic, seeded population of Entries vulnerabilities over a
// Distros-wide universe (the paper's 11 clusters plus generated
// distributions), published FromYear..ToYear. Zero fields select the
// defaults (100k entries, 32 distros, 2002..2025).
type SyntheticSpec struct {
	Entries  int
	Distros  int
	Seed     uint64
	FromYear int
	ToYear   int
}

func (sp SyntheticSpec) corpusConfig(workers int) corpus.SyntheticConfig {
	return corpus.SyntheticConfig{
		Entries:  sp.Entries,
		Distros:  sp.Distros,
		Seed:     sp.Seed,
		FromYear: sp.FromYear,
		ToYear:   sp.ToYear,
		Workers:  workers,
	}
}

// LoadSynthetic generates the synthetic corpus and builds the analysis
// over its universe, skipping the XML round trip.
func LoadSynthetic(spec SyntheticSpec, opts ...Option) (*Analysis, error) {
	cfg := newConfig(opts)
	sc, err := corpus.GenerateSynthetic(spec.corpusConfig(cfg.workers))
	if err != nil {
		return nil, err
	}
	source := fmt.Sprintf("synthetic:%d", len(sc.Registry.Distros()))
	return cfg.analyze(sc.Entries, source, 0, core.WithRegistry(sc.Registry))
}

// GenerateSyntheticFeeds writes the synthetic corpus as per-year NVD 2.0
// XML feeds into dir and returns the file paths. Reload them with
// LoadFeeds(..., WithSyntheticUniverse(spec.Distros)).
func GenerateSyntheticFeeds(dir string, spec SyntheticSpec, opts ...Option) ([]string, error) {
	cfg := newConfig(opts)
	sc, err := corpus.GenerateSynthetic(spec.corpusConfig(cfg.workers))
	if err != nil {
		return nil, err
	}
	return writeFeedsByYear(dir, sc.Entries, cfg.workers)
}

// ImportFeeds parses feeds into the paper's SQL schema and persists the
// database at dbPath. Returns (stored, skipped), where skipped counts
// the entries without a clustered OS product. The feeds stream through
// LoadFeeds' bounded pipeline into the store's batched insert; with
// WithSnapshot the same batches also feed the incremental Study
// builder, so one pass over the feeds fills both. With WithParallelism
// the feeds decode and the entries digest on the worker pool; the
// database bytes are identical at any worker count.
func ImportFeeds(dbPath string, feedPaths []string, opts ...Option) (int, int, error) {
	cfg := newConfig(opts)
	if cfg.sharded() {
		return 0, 0, fmt.Errorf("osdiversity: ImportFeeds stores the whole corpus; shard it when loading (LoadDatabase with WithYearShard)")
	}
	db, err := vulndb.CreateForRegistry(cfg.registry())
	if err != nil {
		return 0, 0, err
	}
	db.SetParallelism(cfg.workers)
	classifier := classify.NewClassifier()
	var b *core.Builder
	if cfg.snapshot != "" {
		b = core.NewBuilder(cfg.studyOptions()...)
	}
	var stored, skipped int
	malformed, err := cfg.drainFeeds(feedPaths, func(batch []*cve.Entry) error {
		n, s, err := db.LoadEntries(batch, classifier)
		stored, skipped = stored+n, skipped+s
		if b != nil {
			b.Add(batch...)
		}
		return err
	})
	if err != nil {
		return stored, skipped, err
	}
	if err := db.Save(dbPath); err != nil {
		return stored, skipped, err
	}
	if b != nil {
		if _, err := cfg.finishAnalysis(b.Finish(), "feeds", malformed); err != nil {
			return stored, skipped, err
		}
	}
	return stored, skipped, nil
}

// SQLPairShared is one cell of the SQL-computed Table III matrix.
type SQLPairShared struct {
	A, B   string
	Shared int
}

// SQLPairwiseShared computes the paper's Table III shared-vulnerability
// matrix directly in the embedded SQL engine over a database produced
// by ImportFeeds: one grouped hash-join plan answers every OS pair,
// without reconstructing entries or building a Study. With
// WithParallelism the join probes shard across the worker pool. The
// counts are byte-identical to PairwiseOverlaps' All column.
func SQLPairwiseShared(dbPath string, opts ...Option) ([]SQLPairShared, error) {
	cfg := newConfig(opts)
	db, err := vulndb.Open(dbPath)
	if err != nil {
		return nil, err
	}
	db.SetParallelism(cfg.workers)
	cells, err := db.SharedMatrix()
	if err != nil {
		return nil, err
	}
	out := make([]SQLPairShared, 0, len(cells))
	for _, c := range cells {
		out = append(out, SQLPairShared{A: c.A, B: c.B, Shared: c.Shared})
	}
	return out, nil
}

// LoadDatabase builds the analysis from a database produced by
// ImportFeeds.
func LoadDatabase(dbPath string, opts ...Option) (*Analysis, error) {
	cfg := newConfig(opts)
	db, err := vulndb.Open(dbPath)
	if err != nil {
		return nil, err
	}
	entries, err := db.Entries()
	if err != nil {
		return nil, err
	}
	return cfg.analyze(entries, "db", 0)
}

// OSNames returns the distribution names of this analysis's universe in
// presentation order (the paper's 11 for the default registry, more for
// synthetic universes).
func (a *Analysis) OSNames() []string {
	var out []string
	for _, d := range a.study.Distros() {
		out = append(out, d.String())
	}
	return out
}

// ValidCount returns the number of distinct valid vulnerabilities.
func (a *Analysis) ValidCount() int { return a.study.ValidEntries() }

// YearRange returns the [min, max] publication years of the valid data
// set (both zero on an empty analysis).
func (a *Analysis) YearRange() (lo, hi int) { return a.study.YearRange() }

// Parallelism reports the effective worker count of the analysis.
func (a *Analysis) Parallelism() int { return a.study.Parallelism() }

// ValidityRow is one row of the paper's Table I.
type ValidityRow struct {
	OS          string
	Valid       int
	Unknown     int
	Unspecified int
	Disputed    int
}

// ValidityTable reproduces Table I; the second result is the distinct
// totals row.
func (a *Analysis) ValidityTable() ([]ValidityRow, ValidityRow) {
	rows, distinct := a.study.ValidityTable()
	out := make([]ValidityRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, ValidityRow{
			OS: r.Distro.String(), Valid: r.Valid,
			Unknown: r.Unknown, Unspecified: r.Unspecified, Disputed: r.Disputed,
		})
	}
	return out, ValidityRow{OS: "# distinct", Valid: distinct.Valid,
		Unknown: distinct.Unknown, Unspecified: distinct.Unspecified, Disputed: distinct.Disputed}
}

// ClassRow is one row of the paper's Table II.
type ClassRow struct {
	OS      string
	Driver  int
	Kernel  int
	SysSoft int
	App     int
}

// ClassDistinctCounts returns the raw, additive half of Table II's
// shares: distinct valid vulnerability counts per component class
// (Driver, Kernel, SysSoft, App) and the valid total. Sum both across
// shards and finalize with core.ClassShares to reproduce ClassTable's
// percentages.
func (a *Analysis) ClassDistinctCounts() (counts [4]int, n int) {
	return a.study.ClassDistinct()
}

// ClassTable reproduces Table II. The shares are the percentage of
// distinct vulnerabilities per class (Driver, Kernel, SysSoft, App).
func (a *Analysis) ClassTable() ([]ClassRow, [4]float64) {
	rows, shares := a.study.ClassTable()
	out := make([]ClassRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, ClassRow{
			OS: r.Distro.String(), Driver: r.Driver, Kernel: r.Kernel,
			SysSoft: r.SysSoft, App: r.App,
		})
	}
	return out, shares
}

// PairOverlap is one row of the paper's Table III.
type PairOverlap struct {
	A, B string
	// Per-OS totals under the three profiles.
	TotalA, TotalB     [3]int
	All, NoApp, Remote int
}

// PairwiseOverlaps reproduces Table III over the universe's pairs (all
// 55 for the paper's 11 distributions).
func (a *Analysis) PairwiseOverlaps() []PairOverlap {
	var out []PairOverlap
	totals := make(map[osmap.Distro][3]int)
	for _, d := range a.study.Distros() {
		totals[d] = [3]int{
			a.study.Total(d, core.FatServer),
			a.study.Total(d, core.ThinServer),
			a.study.Total(d, core.IsolatedThinServer),
		}
	}
	for _, p := range a.study.Pairs() {
		out = append(out, PairOverlap{
			A: p.A.String(), B: p.B.String(),
			TotalA: totals[p.A], TotalB: totals[p.B],
			All:    a.study.Overlap(p, core.FatServer),
			NoApp:  a.study.Overlap(p, core.ThinServer),
			Remote: a.study.Overlap(p, core.IsolatedThinServer),
		})
	}
	return out
}

// PartRow is one row of the paper's Table IV.
type PartRow struct {
	A, B    string
	Driver  int
	Kernel  int
	SysSoft int
	Total   int
}

// PartBreakdowns reproduces Table IV: Isolated-Thin-Server pairs with a
// non-zero overlap, broken down by component class, largest first.
func (a *Analysis) PartBreakdowns() []PartRow {
	var out []PartRow
	for _, p := range a.study.Pairs() {
		parts := a.study.PartBreakdown(p)
		if parts.Total() == 0 {
			continue
		}
		out = append(out, PartRow{
			A: p.A.String(), B: p.B.String(),
			Driver: parts.Driver, Kernel: parts.Kernel, SysSoft: parts.SysSoft,
			Total: parts.Total(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// PartBreakdownsAll returns every pair's Table IV row in pair
// presentation order, zero rows included and unsorted — the raw,
// additive form PartBreakdowns derives from. A scatter-gather merge
// sums the rows per pair index across shards, then filters and sorts
// exactly like PartBreakdowns to reproduce its bytes.
func (a *Analysis) PartBreakdownsAll() []PartRow {
	pairs := a.study.Pairs()
	out := make([]PartRow, 0, len(pairs))
	for _, p := range pairs {
		parts := a.study.PartBreakdown(p)
		out = append(out, PartRow{
			A: p.A.String(), B: p.B.String(),
			Driver: parts.Driver, Kernel: parts.Kernel, SysSoft: parts.SysSoft,
			Total: parts.Total(),
		})
	}
	return out
}

// PeriodCell is one cell of the paper's Table V.
type PeriodCell struct {
	A, B     string
	History  int
	Observed int
}

// HistoryObserved reproduces Table V over the 8 history-eligible OSes,
// split at splitYear (the paper uses 2005).
func (a *Analysis) HistoryObserved(splitYear int) []PeriodCell {
	var out []PeriodCell
	for _, p := range osmap.PairsOf(osmap.HistoryEligible()) {
		pc := a.study.PeriodSplit(p, splitYear)
		out = append(out, PeriodCell{A: p.A.String(), B: p.B.String(),
			History: pc.History, Observed: pc.Observed})
	}
	return out
}

// TemporalSeries reproduces one Figure 2 curve: publication counts per
// year for one OS.
func (a *Analysis) TemporalSeries(osName string) (map[int]int, error) {
	d, err := osmap.ParseDistro(osName)
	if err != nil {
		return nil, err
	}
	return a.study.TemporalSeries(d), nil
}

// ReplicaSet is one ranked replica configuration (§IV-C).
type ReplicaSet struct {
	Members []string
	Cost    int
}

// SelectReplicaSets ranks all size-k subsets of the history-eligible
// OSes by shared vulnerabilities up to toYear, ascending. With
// onePerFamily, sets drawing two OSes from one family are excluded
// (the constraint under which the paper's printed top-3 is optimal).
func (a *Analysis) SelectReplicaSets(k int, onePerFamily bool, toYear int) []ReplicaSet {
	strategy := core.MinPairSum
	if onePerFamily {
		strategy = core.OnePerFamily
	}
	ranked := a.study.RankReplicaSets(osmap.HistoryEligible(), k, strategy,
		core.SelectionWindow{ToYear: toYear})
	out := make([]ReplicaSet, 0, len(ranked))
	for _, r := range ranked {
		rs := ReplicaSet{Cost: r.Cost}
		for _, d := range r.Members {
			rs.Members = append(rs.Members, d.String())
		}
		out = append(out, rs)
	}
	return out
}

// EvaluateConfiguration reproduces one Figure 3 bar pair: the shared
// count of a configuration over the history window and the observed
// window. A single-member configuration models identical replicas.
func (a *Analysis) EvaluateConfiguration(osNames []string, splitYear int) (history, observed int, err error) {
	ds, err := parseDistros(osNames)
	if err != nil {
		return 0, 0, err
	}
	history, observed = a.study.EvaluateConfiguration(ds, splitYear)
	return history, observed, nil
}

// KWiseProducts returns, for each k, the number of distinct valid
// vulnerabilities affecting at least k OS products (§IV-B).
func (a *Analysis) KWiseProducts() map[int]int {
	return a.study.KWiseProducts(core.FatServer)
}

// MostShared returns the CVE identifiers of the n vulnerabilities
// affecting the most OS products.
func (a *Analysis) MostShared(n int) []string {
	var out []string
	for _, c := range a.study.MostSharedCounts(n) {
		out = append(out, c.ID.String())
	}
	return out
}

// SharedCount is one most-shared listing element in mergeable form.
type SharedCount struct {
	ID       string
	Products int
}

// MostSharedCounts returns the first n elements of the most-shared
// order with their OS-product counts — the additive form of MostShared.
// Per-shard prefixes merge to the global listing under the (count desc,
// ID asc) order (core.MergeMostShared).
func (a *Analysis) MostSharedCounts(n int) []SharedCount {
	raw := a.study.MostSharedCounts(n)
	out := make([]SharedCount, 0, len(raw))
	for _, c := range raw {
		out = append(out, SharedCount{ID: c.ID.String(), Products: c.Products})
	}
	return out
}

// PairCost is one history-eligible pair's shared-vulnerability count
// inside a selection window — one additive term of §IV-C's set cost.
type PairCost struct {
	A, B   string
	Shared int
}

// OSCost is one history-eligible distribution's total valid count inside
// a selection window — the homogeneous one-member set's cost.
type OSCost struct {
	OS    string
	Total int
}

// SelectionCosts returns the additive cost vectors behind
// SelectReplicaSets for the window ending at toYear: every
// history-eligible pair's windowed shared count (in osmap.PairsOf
// order) and every history-eligible distribution's windowed total.
// Shard-summed vectors fed to core.RankSetsFromCosts reproduce
// SelectReplicaSets' ranking exactly.
func (a *Analysis) SelectionCosts(toYear int) ([]PairCost, []OSCost) {
	w := core.SelectionWindow{ToYear: toYear}
	elig := osmap.HistoryEligible()
	pairs := osmap.PairsOf(elig)
	pc := make([]PairCost, 0, len(pairs))
	for _, p := range pairs {
		pc = append(pc, PairCost{A: p.A.String(), B: p.B.String(),
			Shared: a.study.PairSharedInWindow(p, w)})
	}
	sc := make([]OSCost, 0, len(elig))
	for _, d := range elig {
		sc = append(sc, OSCost{OS: d.String(),
			Total: a.study.SetCost([]osmap.Distro{d}, w)})
	}
	return pc, sc
}

// FilterReduction returns the §IV-E(1) statistic: the average percentage
// reduction of pairwise overlap from the Fat Server to the Isolated Thin
// Server profile.
func (a *Analysis) FilterReduction() float64 {
	return a.study.FilterReduction(core.FatServer, core.IsolatedThinServer)
}

// ReleaseOverlap reproduces one Table VI cell, identifying releases by
// OS name and version string (for example "Debian", "4.0").
func (a *Analysis) ReleaseOverlap(osA, verA, osB, verB string) (int, error) {
	da, err := osmap.ParseDistro(osA)
	if err != nil {
		return 0, err
	}
	db, err := osmap.ParseDistro(osB)
	if err != nil {
		return 0, err
	}
	return a.study.ReleaseOverlap(da, verA, db, verB), nil
}

// AttackSummary aggregates a Monte Carlo attack batch (the
// reproduction's extension experiment).
type AttackSummary struct {
	Name        string
	MeanTTC     float64
	MedianTTC   float64
	SharedFatal float64
	Unbroken    int
}

// SimulateAttack runs the sequential-campaign adversary of
// internal/attack against a replica configuration with fault threshold
// f (the configuration needs 3f+1 members). The adversary's population
// is built on the analysis's first attack or recommend and shared by
// every later one.
func (a *Analysis) SimulateAttack(name string, osNames []string, f, trials int) (AttackSummary, error) {
	ds, err := parseDistros(osNames)
	if err != nil {
		return AttackSummary{}, err
	}
	model := attack.NewModel(a.study, core.IsolatedThinServer)
	sum, err := model.MonteCarlo(attack.Scenario{Name: name, F: f, OSes: ds}, trials)
	if err != nil {
		return AttackSummary{}, err
	}
	return AttackSummary{
		Name: name, MeanTTC: sum.MeanTTC, MedianTTC: sum.MedianTTC,
		SharedFatal: sum.SharedFatal, Unbroken: sum.Unbroken,
	}, nil
}

// DiversityGain compares mean time-to-compromise of a diverse
// configuration against a homogeneous baseline of baselineOS. A side
// the adversary never breaks has no mean to compare and is an error.
func (a *Analysis) DiversityGain(baselineOS string, diverse []string, f, trials int) (float64, error) {
	base, err := parseDistros([]string{baselineOS})
	if err != nil {
		return 0, err
	}
	ds, err := parseDistros(diverse)
	if err != nil {
		return 0, err
	}
	homog := make([]osmap.Distro, 3*f+1)
	for i := range homog {
		homog[i] = base[0]
	}
	model := attack.NewModel(a.study, core.IsolatedThinServer)
	return model.Gain(
		attack.Scenario{Name: "homogeneous", F: f, OSes: homog},
		attack.Scenario{Name: "diverse", F: f, OSes: ds},
		trials)
}

// RecommendSpec parameterizes the dynamic-diversity schedule search
// (internal/scenario). Zero fields take calibrated defaults: the
// paper's eight history-eligible distributions, F=1, two temporal
// windows spanning the corpus years, rotation interval 2, 200 trials,
// seed 1, beam 4, top 3 reported candidates.
type RecommendSpec struct {
	Universe []string
	F        int
	Windows  int
	FromYear int
	ToYear   int
	Interval float64
	Trials   int
	Seed     uint64
	Beam     int
	Top      int
}

// CanonRecommendSpec fills defaults, clamps bounds against the corpus
// year range, and validates the spec. It is idempotent, so callers can
// canonicalize once for cache keys and pass the result to Recommend.
func (a *Analysis) CanonRecommendSpec(spec RecommendSpec) (RecommendSpec, error) {
	out := spec
	if len(out.Universe) == 0 {
		for _, d := range osmap.HistoryEligible() {
			out.Universe = append(out.Universe, d.String())
		}
	} else {
		ds, err := parseDistros(out.Universe)
		if err != nil {
			return RecommendSpec{}, err
		}
		canon := make([]string, len(ds))
		for i, d := range ds {
			canon[i] = d.String()
		}
		out.Universe = canon
	}
	if out.F == 0 {
		out.F = 1
	}
	if out.F < 1 || out.F > 5 {
		return RecommendSpec{}, fmt.Errorf("osdiversity: F must be in [1, 5], got %d", out.F)
	}
	if n := 3*out.F + 1; len(out.Universe) < n {
		return RecommendSpec{}, fmt.Errorf("osdiversity: universe of %d cannot fill %d replicas for F=%d", len(out.Universe), n, out.F)
	}
	lo, hi := a.study.YearRange()
	if out.FromYear == 0 {
		out.FromYear = lo
	}
	if out.ToYear == 0 {
		out.ToYear = hi
	}
	out.FromYear = clampYear(out.FromYear, lo, hi)
	out.ToYear = clampYear(out.ToYear, lo, hi)
	if out.FromYear > out.ToYear {
		return RecommendSpec{}, fmt.Errorf("osdiversity: from year %d after to year %d", out.FromYear, out.ToYear)
	}
	if out.Windows == 0 {
		out.Windows = 2
	}
	if out.Windows < 1 || out.Windows > 8 {
		return RecommendSpec{}, fmt.Errorf("osdiversity: windows must be in [1, 8], got %d", out.Windows)
	}
	if span := out.ToYear - out.FromYear + 1; out.Windows > span {
		out.Windows = span
	}
	if out.Interval == 0 {
		out.Interval = 2
	}
	if out.Interval <= 0 {
		return RecommendSpec{}, fmt.Errorf("osdiversity: interval must be positive, got %v", out.Interval)
	}
	if out.Trials == 0 {
		out.Trials = 200
	}
	if out.Trials < 1 || out.Trials > 100000 {
		return RecommendSpec{}, fmt.Errorf("osdiversity: trials must be in [1, 100000], got %d", out.Trials)
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Beam == 0 {
		out.Beam = 4
	}
	if out.Beam < 1 || out.Beam > 16 {
		return RecommendSpec{}, fmt.Errorf("osdiversity: beam must be in [1, 16], got %d", out.Beam)
	}
	// Keep beam^windows inside the scenario engine's schedule cap.
	for pow(out.Beam, out.Windows) > 1024 {
		out.Beam--
	}
	if out.Top == 0 {
		out.Top = 3
	}
	if out.Top < 1 || out.Top > 32 {
		return RecommendSpec{}, fmt.Errorf("osdiversity: top must be in [1, 32], got %d", out.Top)
	}
	return out, nil
}

func clampYear(y, lo, hi int) int {
	if y < lo {
		return lo
	}
	if y > hi {
		return hi
	}
	return y
}

func pow(b, e int) int {
	n := 1
	for i := 0; i < e; i++ {
		if n *= b; n > 1024 {
			return n
		}
	}
	return n
}

// RecommendWindow is one temporal window of a recommended schedule.
type RecommendWindow struct {
	FromYear int
	ToYear   int
	OSes     []string
	Cost     int
}

// RecommendCandidate is one ranked rotation schedule.
type RecommendCandidate struct {
	Survival float64
	Cost     int
	Windows  []RecommendWindow
}

// Recommendation is a completed dynamic-diversity search: the
// canonicalized spec it answered, the top candidates ranked by Monte
// Carlo survival (ties by static cost, then enumeration order), and
// the BFT replay verdict for the winner.
type Recommendation struct {
	Spec       RecommendSpec
	Replicas   int
	Evaluated  int
	Candidates []RecommendCandidate
	Validated  bool
	Violations []string
}

// Recommend searches OS assignments and rotation schedules maximizing
// survival under the Monte Carlo attack model (internal/scenario) and
// validates the winner on the BFT substrate. Trials run on the
// configured worker pool with per-candidate seed streams, so the
// result is identical at any parallelism.
func (a *Analysis) Recommend(spec RecommendSpec) (Recommendation, error) {
	canon, err := a.CanonRecommendSpec(spec)
	if err != nil {
		return Recommendation{}, err
	}
	ds, err := parseDistros(canon.Universe)
	if err != nil {
		return Recommendation{}, err
	}
	res, err := scenario.NewEngine(a.study, core.IsolatedThinServer).Search(scenario.Spec{
		F:        canon.F,
		Universe: ds,
		Windows:  splitWindows(canon.FromYear, canon.ToYear, canon.Windows),
		Interval: canon.Interval,
		Trials:   canon.Trials,
		Seed:     canon.Seed,
		Beam:     canon.Beam,
	})
	if err != nil {
		return Recommendation{}, err
	}
	rec := Recommendation{
		Spec:       canon,
		Replicas:   3*canon.F + 1,
		Evaluated:  res.Evaluated,
		Candidates: []RecommendCandidate{},
		Validated:  res.Validated,
		Violations: append([]string{}, res.Violations...),
	}
	top := canon.Top
	if top > len(res.Candidates) {
		top = len(res.Candidates)
	}
	for _, c := range res.Candidates[:top] {
		rc := RecommendCandidate{
			Survival: c.Survival,
			Cost:     c.Cost,
			Windows:  make([]RecommendWindow, 0, len(c.Windows)),
		}
		for _, w := range c.Windows {
			names := make([]string, len(w.OSes))
			for i, d := range w.OSes {
				names[i] = d.String()
			}
			rc.Windows = append(rc.Windows, RecommendWindow{
				FromYear: w.Window.FromYear,
				ToYear:   w.Window.ToYear,
				OSes:     names,
				Cost:     w.Cost,
			})
		}
		rec.Candidates = append(rec.Candidates, rc)
	}
	return rec, nil
}

// splitWindows partitions [from, to] into n contiguous year windows;
// earlier windows absorb the remainder years.
func splitWindows(from, to, n int) []core.SelectionWindow {
	span := to - from + 1
	base, rem := span/n, span%n
	out := make([]core.SelectionWindow, 0, n)
	start := from
	for i := 0; i < n; i++ {
		length := base
		if i < rem {
			length++
		}
		out = append(out, core.SelectionWindow{FromYear: start, ToYear: start + length - 1})
		start += length
	}
	return out
}

func parseDistros(names []string) ([]osmap.Distro, error) {
	out := make([]osmap.Distro, 0, len(names))
	for _, n := range names {
		d, err := osmap.ParseDistro(n)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
