package server

import (
	"fmt"
	"sort"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/vulndb"
)

// This file builds the httpapi wire documents from facade results. The
// builders are exported because cmd/osdiv's printers and the benchmark
// harness reuse them: the bytes a server endpoint answers and the bytes
// the CLI prints must come from the same constructor. Every slice field is allocated
// non-nil so compact-marshal and the streaming encoder agree on empty
// arrays ([] rather than null).

// EpochStatus is the live-reload accounting BuildCorpus folds into the
// /corpus document. A CLI rendering of a one-shot corpus passes
// {Epoch: 1}: the only generation that ever exists in that process.
type EpochStatus struct {
	Epoch           uint64
	ReloadSuccesses uint64
	ReloadFailures  uint64
	LastReloadError string
	LastReloadUnix  int64
}

// BuildCorpus describes the loaded corpus for /corpus. planCache is
// the resident database's plan-cache accounting, nil when no database
// is open (CLI renders pass nil: the subcommand exits before a cache
// could accumulate history worth reporting).
func BuildCorpus(a *osdiversity.Analysis, source, engine string, workers int, shard string, sql bool, es EpochStatus, planCache *httpapi.PlanCacheInfo) httpapi.CorpusInfo {
	names := a.OSNames()
	if names == nil {
		names = []string{}
	}
	lo, hi := a.YearRange()
	return httpapi.CorpusInfo{
		Source:          source,
		Engine:          engine,
		Workers:         workers,
		Shard:           shard,
		ValidEntries:    a.ValidCount(),
		Distros:         len(names),
		OSNames:         names,
		YearFrom:        lo,
		YearTo:          hi,
		SQL:             sql,
		Epoch:           es.Epoch,
		EpochUnix:       a.Epoch().Unix(),
		SnapshotDigest:  a.SnapshotDigest(),
		Skipped:         a.MalformedSkipped(),
		ReloadSuccesses: es.ReloadSuccesses,
		ReloadFailures:  es.ReloadFailures,
		LastReloadError: es.LastReloadError,
		LastReloadUnix:  es.LastReloadUnix,
		PlanCache:       planCache,
	}
}

// BuildTable1 renders the paper's Table I.
func BuildTable1(a *osdiversity.Analysis) httpapi.Table1 {
	rows, distinct := a.ValidityTable()
	doc := httpapi.Table1{Rows: make([]httpapi.ValidityRow, 0, len(rows))}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, httpapi.ValidityRow{
			OS: r.OS, Valid: r.Valid, Unknown: r.Unknown,
			Unspecified: r.Unspecified, Disputed: r.Disputed,
		})
	}
	doc.Distinct = httpapi.ValidityRow{
		OS: distinct.OS, Valid: distinct.Valid, Unknown: distinct.Unknown,
		Unspecified: distinct.Unspecified, Disputed: distinct.Disputed,
	}
	return doc
}

// BuildTable2 renders the paper's Table II.
func BuildTable2(a *osdiversity.Analysis) httpapi.Table2 {
	rows, shares := a.ClassTable()
	doc := httpapi.Table2{Rows: make([]httpapi.ClassRow, 0, len(rows)), SharesPct: shares}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, httpapi.ClassRow{
			OS: r.OS, Driver: r.Driver, Kernel: r.Kernel, SysSoft: r.SysSoft, App: r.App,
		})
	}
	return doc
}

// BuildTable3 renders the paper's Table III plus the §IV-E(1) filter
// reduction statistic.
func BuildTable3(a *osdiversity.Analysis) httpapi.Table3 {
	overlaps := a.PairwiseOverlaps()
	doc := httpapi.Table3{
		Rows:               make([]httpapi.PairRow, 0, len(overlaps)),
		FilterReductionPct: a.FilterReduction(),
	}
	for _, row := range overlaps {
		doc.Rows = append(doc.Rows, httpapi.PairRow{
			A: row.A, B: row.B, TotalA: row.TotalA, TotalB: row.TotalB,
			All: row.All, NoApp: row.NoApp, Remote: row.Remote,
		})
	}
	return doc
}

// BuildTable4 renders the paper's Table IV.
func BuildTable4(a *osdiversity.Analysis) httpapi.Table4 {
	parts := a.PartBreakdowns()
	doc := httpapi.Table4{Rows: make([]httpapi.PartRow, 0, len(parts))}
	for _, row := range parts {
		doc.Rows = append(doc.Rows, httpapi.PartRow{
			A: row.A, B: row.B, Driver: row.Driver, Kernel: row.Kernel,
			SysSoft: row.SysSoft, Total: row.Total,
		})
	}
	return doc
}

// BuildTable5 renders the paper's Table V split at splitYear.
func BuildTable5(a *osdiversity.Analysis, splitYear int) httpapi.Table5 {
	cells := a.HistoryObserved(splitYear)
	doc := httpapi.Table5{SplitYear: splitYear, Cells: make([]httpapi.PeriodCell, 0, len(cells))}
	for _, c := range cells {
		doc.Cells = append(doc.Cells, httpapi.PeriodCell{
			A: c.A, B: c.B, History: c.History, Observed: c.Observed,
		})
	}
	return doc
}

// BuildTemporal renders one Figure 2 series, years ascending.
func BuildTemporal(a *osdiversity.Analysis, osName string) (httpapi.Temporal, error) {
	series, err := a.TemporalSeries(osName)
	if err != nil {
		return httpapi.Temporal{}, err
	}
	doc := httpapi.Temporal{OS: osName, Years: make([]httpapi.YearCount, 0, len(series))}
	for y, n := range series {
		doc.Years = append(doc.Years, httpapi.YearCount{Year: y, Count: n})
	}
	sort.Slice(doc.Years, func(i, j int) bool { return doc.Years[i].Year < doc.Years[j].Year })
	return doc, nil
}

// BuildKWise renders the §IV-B k-wise product counts, k ascending.
func BuildKWise(a *osdiversity.Analysis) httpapi.KWise {
	kwise := a.KWiseProducts()
	doc := httpapi.KWise{Products: make([]httpapi.KCount, 0, len(kwise))}
	for k, n := range kwise {
		doc.Products = append(doc.Products, httpapi.KCount{K: k, Count: n})
	}
	sort.Slice(doc.Products, func(i, j int) bool { return doc.Products[i].K < doc.Products[j].K })
	return doc
}

// BuildMostShared renders the n most shared CVE identifiers (fewer when
// the corpus is smaller).
func BuildMostShared(a *osdiversity.Analysis, n int) httpapi.MostShared {
	ids := a.MostShared(n)
	if ids == nil {
		ids = []string{}
	}
	return httpapi.MostShared{N: len(ids), IDs: ids}
}

// BuildSelect renders the §IV-C replica-set ranking; top > 0 keeps only
// the best top sets.
func BuildSelect(a *osdiversity.Analysis, k int, onePerFamily bool, toYear, top int) httpapi.Select {
	ranked := a.SelectReplicaSets(k, onePerFamily, toYear)
	if top > 0 && len(ranked) > top {
		ranked = ranked[:top]
	}
	doc := httpapi.Select{
		K: k, OnePerFamily: onePerFamily, ToYear: toYear,
		Sets: make([]httpapi.ReplicaSet, 0, len(ranked)),
	}
	for _, r := range ranked {
		members := r.Members
		if members == nil {
			members = []string{}
		}
		doc.Sets = append(doc.Sets, httpapi.ReplicaSet{Members: members, Shared: r.Cost})
	}
	return doc
}

// defaultReleaseGrid is the release set of the paper's Table VI.
var defaultReleaseGrid = []struct{ os, ver string }{
	{"Debian", "2.1"}, {"Debian", "3.0"}, {"Debian", "4.0"},
	{"RedHat", "6.2*"}, {"RedHat", "4.0"}, {"RedHat", "5.0"},
}

// BuildReleases renders the default Table VI grid.
func BuildReleases(a *osdiversity.Analysis) (httpapi.Releases, error) {
	doc := httpapi.Releases{Cells: []httpapi.ReleaseCell{}}
	for i := 0; i < len(defaultReleaseGrid); i++ {
		for j := i + 1; j < len(defaultReleaseGrid); j++ {
			ra, rb := defaultReleaseGrid[i], defaultReleaseGrid[j]
			n, err := a.ReleaseOverlap(ra.os, ra.ver, rb.os, rb.ver)
			if err != nil {
				return httpapi.Releases{}, err
			}
			doc.Cells = append(doc.Cells, httpapi.ReleaseCell{
				A: ra.os, VA: ra.ver, B: rb.os, VB: rb.ver, Shared: n,
			})
		}
	}
	return doc, nil
}

// BuildReleaseOverlap renders one per-release overlap cell.
func BuildReleaseOverlap(a *osdiversity.Analysis, osA, verA, osB, verB string) (httpapi.Releases, error) {
	n, err := a.ReleaseOverlap(osA, verA, osB, verB)
	if err != nil {
		return httpapi.Releases{}, err
	}
	return httpapi.Releases{Cells: []httpapi.ReleaseCell{
		{A: osA, VA: verA, B: osB, VB: verB, Shared: n},
	}}, nil
}

// BuildAttack renders one Monte Carlo attack batch. The trials are
// seeded per scenario, so the summary is deterministic at any worker
// count.
func BuildAttack(a *osdiversity.Analysis, name string, oses []string, f, trials int) (httpapi.Attack, error) {
	sum, err := a.SimulateAttack(name, oses, f, trials)
	if err != nil {
		return httpapi.Attack{}, err
	}
	members := append([]string(nil), oses...)
	if members == nil {
		members = []string{}
	}
	return httpapi.Attack{
		Name: sum.Name, OSes: members, F: f, Trials: trials,
		MeanTTC: sum.MeanTTC, MedianTTC: sum.MedianTTC,
		SharedFatal: sum.SharedFatal, Unbroken: sum.Unbroken,
	}, nil
}

// BuildSQLTable3FromDB renders the SQL-path Table III matrix over a
// resident database — the server path, shared by file-opened and
// shard-injected stores. The os dimension table is seeded identically
// in every database, so per-shard documents carry the same pairs in the
// same order and their cells sum across shards.
func BuildSQLTable3FromDB(db *vulndb.DB) (httpapi.SQLTable3, error) {
	cells, err := db.SharedMatrix()
	if err != nil {
		return httpapi.SQLTable3{}, fmt.Errorf("sql table3: %w", err)
	}
	doc := httpapi.SQLTable3{Cells: make([]httpapi.SQLCell, 0, len(cells))}
	for _, c := range cells {
		doc.Cells = append(doc.Cells, httpapi.SQLCell{A: c.A, B: c.B, Shared: c.Shared})
	}
	return doc, nil
}

// The partial builders render the /api/partial/* documents: the raw,
// additive halves of the derived tables, which the gateway merges
// across shards and finalizes with the core helpers. They ride the
// same Responder as every other endpoint, so partial answers coalesce
// and cache per epoch like the tables they feed.

// BuildTable2Partial renders Table II plus its raw share inputs.
func BuildTable2Partial(a *osdiversity.Analysis) httpapi.Table2Partial {
	counts, n := a.ClassDistinctCounts()
	return httpapi.Table2Partial{
		Rows:          BuildTable2(a).Rows,
		ClassDistinct: counts,
		Valid:         n,
	}
}

// BuildTable4Partial renders every pair's Table IV row, unfiltered and
// unsorted, in pair presentation order.
func BuildTable4Partial(a *osdiversity.Analysis) httpapi.Table4Partial {
	parts := a.PartBreakdownsAll()
	doc := httpapi.Table4Partial{Rows: make([]httpapi.PartRow, 0, len(parts))}
	for _, row := range parts {
		doc.Rows = append(doc.Rows, httpapi.PartRow{
			A: row.A, B: row.B, Driver: row.Driver, Kernel: row.Kernel,
			SysSoft: row.SysSoft, Total: row.Total,
		})
	}
	return doc
}

// BuildMostSharedPartial renders the shard's top-n most-shared prefix
// with the product counts the gateway merge orders by.
func BuildMostSharedPartial(a *osdiversity.Analysis, n int) httpapi.MostSharedPartial {
	raw := a.MostSharedCounts(n)
	doc := httpapi.MostSharedPartial{Entries: make([]httpapi.SharedProduct, 0, len(raw))}
	for _, c := range raw {
		doc.Entries = append(doc.Entries, httpapi.SharedProduct{ID: c.ID, Products: c.Products})
	}
	doc.N = len(doc.Entries)
	return doc
}

// BuildSelectPartial renders the additive §IV-C cost vectors for the
// window ending at toYear.
func BuildSelectPartial(a *osdiversity.Analysis, toYear int) httpapi.SelectPartial {
	pairs, singles := a.SelectionCosts(toYear)
	doc := httpapi.SelectPartial{
		ToYear:  toYear,
		Pairs:   make([]httpapi.SelectPairCost, 0, len(pairs)),
		Singles: make([]httpapi.SelectOSCost, 0, len(singles)),
	}
	for _, p := range pairs {
		doc.Pairs = append(doc.Pairs, httpapi.SelectPairCost{A: p.A, B: p.B, Shared: p.Shared})
	}
	for _, s := range singles {
		doc.Singles = append(doc.Singles, httpapi.SelectOSCost{OS: s.OS, Total: s.Total})
	}
	return doc
}
