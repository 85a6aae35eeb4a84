// Package httpapi defines the wire format of the osdiv server mode —
// the JSON documents every /api endpoint returns, the typed error
// envelope — and a small HTTP client over them.
//
// The types live apart from internal/server so the server handlers,
// the osdiv -json printers and the test clients all marshal the exact
// same documents: byte-identity between `osdiv serve` responses and
// `osdiv tables -json` output is a contract, not a coincidence.
package httpapi

import "encoding/json"

// Health is the /healthz document.
type Health struct {
	Status string `json:"status"`
}

// CorpusInfo is the /corpus document: what the resident server loaded,
// how it executes queries, and where the corpus came from. EpochUnix is
// when the corpus was built — for snapshot boots, the snapshot's save
// time, so every replica warm-started from one file reports the same
// epoch. SnapshotDigest is the snapshot payload checksum
// ("crc32c:xxxxxxxx"), empty for feed-built corpora. Epoch is the
// live-reload generation (1 for the boot corpus, bumped by every
// successful hot reload); the reload counters account for every swap
// and every degraded reload since boot.
type CorpusInfo struct {
	Source          string   `json:"source"`
	Engine          string   `json:"engine"`
	Workers         int      `json:"workers"`
	Shard           string   `json:"shard,omitempty"` // "i/N" when serving a year-range slice
	ValidEntries    int      `json:"valid_entries"`
	Distros         int      `json:"distros"`
	OSNames         []string `json:"os_names"`
	YearFrom        int      `json:"year_from"`
	YearTo          int      `json:"year_to"`
	SQL             bool     `json:"sql"`
	Epoch           uint64   `json:"epoch"`
	EpochUnix       int64    `json:"epoch_unix"`
	SnapshotDigest  string   `json:"snapshot_digest,omitempty"`
	Skipped         int      `json:"skipped,omitempty"`
	ReloadSuccesses uint64   `json:"reload_successes,omitempty"`
	ReloadFailures  uint64   `json:"reload_failures,omitempty"`
	LastReloadError string   `json:"last_reload_error,omitempty"`
	LastReloadUnix  int64    `json:"last_reload_unix,omitempty"`

	// PlanCache reports the resident database's shared plan cache; nil
	// when the server was not started over an imported database.
	PlanCache *PlanCacheInfo `json:"plan_cache,omitempty"`
}

// PlanCacheInfo reports the SQL plan cache of the resident database:
// size against capacity plus lifetime hit/miss/eviction/invalidation
// counters. Present on /corpus only when the server runs over an
// imported database.
type PlanCacheInfo struct {
	Size          int    `json:"size"`
	Capacity      int    `json:"capacity"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// QueryRequest is the POST /api/query body: one SELECT statement with
// optional positional arguments for its `?` placeholders. Arguments
// bind as typed values — numbers, strings, booleans or null — never by
// text substitution.
type QueryRequest struct {
	SQL  string `json:"sql"`
	Args []any  `json:"args,omitempty"`
}

// QueryResult is the /api/query document. Rows hold JSON-typed cells in
// column order; large results are streamed row by row, byte-identical
// to Marshal of the whole document.
type QueryResult struct {
	Columns []string `json:"columns"`
	N       int      `json:"n"`
	Rows    [][]any  `json:"rows"`
}

// Ready is the /readyz document. Status is "ok" once the first epoch is
// resident; before that /readyz answers 503 with an error envelope.
type Ready struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
}

// ReloadResult is the POST /admin/reload success document.
type ReloadResult struct {
	Epoch         uint64 `json:"epoch"`
	Source        string `json:"source"`
	ValidEntries  int    `json:"valid_entries"`
	SwappedAtUnix int64  `json:"swapped_at_unix"`
}

// ValidityRow is one row of Table I.
type ValidityRow struct {
	OS          string `json:"os"`
	Valid       int    `json:"valid"`
	Unknown     int    `json:"unknown"`
	Unspecified int    `json:"unspecified"`
	Disputed    int    `json:"disputed"`
}

// Table1 is the /api/table1 document.
type Table1 struct {
	Rows     []ValidityRow `json:"rows"`
	Distinct ValidityRow   `json:"distinct"`
}

// ClassRow is one row of Table II.
type ClassRow struct {
	OS      string `json:"os"`
	Driver  int    `json:"driver"`
	Kernel  int    `json:"kernel"`
	SysSoft int    `json:"sys_soft"`
	App     int    `json:"app"`
}

// Table2 is the /api/table2 document; SharesPct are the distinct-
// vulnerability percentage shares of the four classes, in table order.
type Table2 struct {
	Rows      []ClassRow `json:"rows"`
	SharesPct [4]float64 `json:"shares_pct"`
}

// PairRow is one row of Table III: per-OS totals and the shared count
// under the three profiles (All / NoApp / NoApp+Remote-only).
type PairRow struct {
	A      string `json:"a"`
	B      string `json:"b"`
	TotalA [3]int `json:"total_a"`
	TotalB [3]int `json:"total_b"`
	All    int    `json:"all"`
	NoApp  int    `json:"no_app"`
	Remote int    `json:"remote"`
}

// Table3 is the /api/table3 document.
type Table3 struct {
	Rows               []PairRow `json:"rows"`
	FilterReductionPct float64   `json:"filter_reduction_pct"`
}

// PartRow is one row of Table IV.
type PartRow struct {
	A       string `json:"a"`
	B       string `json:"b"`
	Driver  int    `json:"driver"`
	Kernel  int    `json:"kernel"`
	SysSoft int    `json:"sys_soft"`
	Total   int    `json:"total"`
}

// Table4 is the /api/table4 document.
type Table4 struct {
	Rows []PartRow `json:"rows"`
}

// PeriodCell is one cell of Table V.
type PeriodCell struct {
	A        string `json:"a"`
	B        string `json:"b"`
	History  int    `json:"history"`
	Observed int    `json:"observed"`
}

// Table5 is the /api/table5 document.
type Table5 struct {
	SplitYear int          `json:"split_year"`
	Cells     []PeriodCell `json:"cells"`
}

// YearCount is one point of a Figure 2 temporal series.
type YearCount struct {
	Year  int `json:"year"`
	Count int `json:"count"`
}

// Temporal is the /api/temporal document.
type Temporal struct {
	OS    string      `json:"os"`
	Years []YearCount `json:"years"`
}

// KCount is one k-wise bucket.
type KCount struct {
	K     int `json:"k"`
	Count int `json:"count"`
}

// KWise is the /api/kwise document: distinct valid vulnerabilities
// affecting at least k OS products.
type KWise struct {
	Products []KCount `json:"products"`
}

// MostShared is the /api/mostshared document. Large listings stream
// the IDs array; the bytes are identical to Marshal of the whole
// document.
type MostShared struct {
	N   int      `json:"n"`
	IDs []string `json:"ids"`
}

// ReplicaSet is one ranked replica configuration.
type ReplicaSet struct {
	Members []string `json:"members"`
	Shared  int      `json:"shared"`
}

// Select is the /api/select document.
type Select struct {
	K            int          `json:"k"`
	OnePerFamily bool         `json:"one_per_family"`
	ToYear       int          `json:"to_year"`
	Sets         []ReplicaSet `json:"sets"`
}

// ReleaseCell is one per-release overlap cell (Table VI).
type ReleaseCell struct {
	A      string `json:"a"`
	VA     string `json:"va"`
	B      string `json:"b"`
	VB     string `json:"vb"`
	Shared int    `json:"shared"`
}

// Releases is the /api/releases document.
type Releases struct {
	Cells []ReleaseCell `json:"cells"`
}

// Attack is the /api/attack document: one Monte Carlo batch summary.
type Attack struct {
	Name        string   `json:"name"`
	OSes        []string `json:"oses"`
	F           int      `json:"f"`
	Trials      int      `json:"trials"`
	MeanTTC     float64  `json:"mean_ttc"`
	MedianTTC   float64  `json:"median_ttc"`
	SharedFatal float64  `json:"shared_fatal"`
	Unbroken    int      `json:"unbroken"`
}

// RecommendRequest is the POST /api/recommend body: the spec of one
// dynamic-diversity schedule search. Zero fields take server defaults
// (history-eligible universe, F=1, 2 windows over the corpus years,
// interval 2, 200 trials, seed 1, beam 4, top 3).
type RecommendRequest struct {
	Universe []string `json:"universe,omitempty"`
	F        int      `json:"f,omitempty"`
	Windows  int      `json:"windows,omitempty"`
	FromYear int      `json:"from,omitempty"`
	ToYear   int      `json:"to,omitempty"`
	Interval float64  `json:"interval,omitempty"`
	Trials   int      `json:"trials,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Beam     int      `json:"beam,omitempty"`
	Top      int      `json:"top,omitempty"`
}

// RecommendWindow is one temporal window of a recommended schedule.
type RecommendWindow struct {
	FromYear int      `json:"from"`
	ToYear   int      `json:"to"`
	OSes     []string `json:"oses"`
	Cost     int      `json:"cost"`
}

// RecommendCandidate is one ranked rotation schedule.
type RecommendCandidate struct {
	Rank     int               `json:"rank"`
	Survival float64           `json:"survival"`
	Cost     int               `json:"cost"`
	Windows  []RecommendWindow `json:"windows"`
}

// Recommend is the /api/recommend document: the canonicalized spec the
// search answered, the top schedules ranked by Monte Carlo survival,
// and the BFT replay verdict for the winner.
type Recommend struct {
	Universe   []string             `json:"universe"`
	F          int                  `json:"f"`
	Replicas   int                  `json:"replicas"`
	Windows    int                  `json:"windows"`
	FromYear   int                  `json:"from"`
	ToYear     int                  `json:"to"`
	Interval   float64              `json:"interval"`
	Trials     int                  `json:"trials"`
	Seed       uint64               `json:"seed"`
	Beam       int                  `json:"beam"`
	Evaluated  int                  `json:"evaluated"`
	Candidates []RecommendCandidate `json:"candidates"`
	Validated  bool                 `json:"validated"`
	Violations []string             `json:"violations"`
}

// SQLCell is one cell of the SQL-computed Table III matrix.
type SQLCell struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Shared int    `json:"shared"`
}

// SQLTable3 is the /api/sqltable3 document.
type SQLTable3 struct {
	Cells []SQLCell `json:"cells"`
}

// Partial-aggregate documents. A sharded backend (osdiv serve -shard
// i/N) owns a year-range slice of the corpus; these documents carry the
// raw, additive halves of the derived tables so the gateway can merge
// per-shard answers and finalize (shares, filter reduction, most-shared
// order, set ranking) with the single-process arithmetic. Endpoints
// whose regular documents are already additive (table1, table3 rows,
// table5 cells, temporal, kwise, releases, sqltable3) have no partial
// form — the gateway merges the regular documents.

// Table2Partial is the /api/partial/table2 document: Table II rows plus
// the raw distinct-per-class counts and valid total behind the
// percentage shares. Everything here sums across shards.
type Table2Partial struct {
	Rows          []ClassRow `json:"rows"`
	ClassDistinct [4]int     `json:"class_distinct"`
	Valid         int        `json:"valid"`
}

// Table4Partial is the /api/partial/table4 document: every pair's
// Table IV row in pair presentation order, zero rows included and
// unsorted, so per-index sums across shards finalize into Table4.
type Table4Partial struct {
	Rows []PartRow `json:"rows"`
}

// SharedProduct is one mergeable most-shared element.
type SharedProduct struct {
	ID       string `json:"id"`
	Products int    `json:"products"`
}

// MostSharedPartial is the /api/partial/mostshared document: the
// shard's top-n prefix of the (product count desc, CVE ID asc) order
// with the counts the merge needs.
type MostSharedPartial struct {
	N       int             `json:"n"`
	Entries []SharedProduct `json:"entries"`
}

// SelectPairCost is one history-eligible pair's windowed shared count.
type SelectPairCost struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Shared int    `json:"shared"`
}

// SelectOSCost is one history-eligible distribution's windowed total —
// the homogeneous single-member replica set's cost.
type SelectOSCost struct {
	OS    string `json:"os"`
	Total int    `json:"total"`
}

// SelectPartial is the /api/partial/select document: the additive cost
// vectors behind §IV-C set ranking for the window ending at to_year.
type SelectPartial struct {
	ToYear  int              `json:"to_year"`
	Pairs   []SelectPairCost `json:"pairs"`
	Singles []SelectOSCost   `json:"singles"`
}

// ShardStatus is one backend's slice of the gateway /readyz document.
type ShardStatus struct {
	Backend string `json:"backend"`
	Status  string `json:"status"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Error   string `json:"error,omitempty"`
}

// GatewayReady is the gateway /readyz document: per-shard readiness and
// the joined epoch vector the gateway keys its response cache on. The
// gateway is ready only when every backend is.
type GatewayReady struct {
	Status string        `json:"status"`
	Epochs string        `json:"epochs"`
	Shards []ShardStatus `json:"shards"`
}

// ShardCorpus is one backend's identity in the gateway /corpus
// document: who it is, which slice it owns, and what it loaded.
type ShardCorpus struct {
	Backend      string `json:"backend"`
	Shard        string `json:"shard,omitempty"`
	Source       string `json:"source"`
	ValidEntries int    `json:"valid_entries"`
	YearFrom     int    `json:"year_from"`
	YearTo       int    `json:"year_to"`
	Epoch        uint64 `json:"epoch"`
}

// GatewayCorpus is the gateway /corpus document: the merged corpus
// figures (valid entries summed, year range unioned over non-empty
// shards) and each backend's identity.
type GatewayCorpus struct {
	Backends     []string      `json:"backends"`
	ValidEntries int           `json:"valid_entries"`
	YearFrom     int           `json:"year_from"`
	YearTo       int           `json:"year_to"`
	Epochs       string        `json:"epochs"`
	Shards       []ShardCorpus `json:"shards"`
}

// ErrorBody is the payload of the error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON document of every non-200 response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Marshal renders a document in the server's canonical encoding:
// compact JSON plus a trailing newline. Every producer — handlers,
// the streaming encoder, the osdiv -json printers — emits exactly
// these bytes, so clients may diff responses textually.
func Marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
