package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/relstore"
)

// The endpoint table is the API's single declaration. The server mux,
// the shard /api/partial/* routes, the gateway mux, `osdiv tables
// -json` and the test sweeps all iterate it, so adding an endpoint is
// one entry here plus its wire type and builder.
//
// A computed request flows the same way on both tiers: the method
// guard, the epoch (server) or shard epoch vector (gateway), canon,
// then the Responder, keyed by the path and the canonical parameters.
// On a miss the server builds over its epoch; the gateway scatters the
// canonical parameters to every shard — to the partial route when the
// endpoint declares one — and merges the legs.

// endpoint declares one path of the API.
type endpoint struct {
	path   string
	method string
	// table is the paper table the endpoint serves, which `osdiv
	// tables -json` prints; 0 for the rest.
	table int
	// sql marks the SQL surface: a server without an imported database
	// answers 404 no_database before reading the request.
	sql bool
	// canon validates the request and records its canonical parameters;
	// nil for endpoints without any.
	canon func(c *canonReq, p *params)
	// build renders the document from one epoch. Endpoints without one
	// (/healthz, /readyz, /corpus, /admin/reload) are answered by each
	// tier's own handler.
	build func(in *input) (any, *Error)
	// partial is the additive half a shard serves for the merge, nil when
	// the regular documents merge as they are.
	partial *partial
	// merge folds the shard legs into the document at the gateway. An
	// endpoint without one is refused there with 501 and refuse.
	merge  func(legs []Leg, p *params) (any, *Error)
	refuse string
}

// partial is a shard's half of a merged endpoint, served at
// /api/partial/<name>. keys names the canonical parameters its legs
// carry, so shard caches are not split by parameters only the merge
// reads.
type partial struct {
	keys  []string
	build func(in *input) any
}

// The parameter defaults of a bare request.
const (
	defaultSplitYear  = 2005 // the paper's Table V history/observed split
	defaultMostShared = 3
	defaultSelectK    = 4
	defaultTrials     = 200
)

// queryMaxBody bounds a POST request document.
const queryMaxBody = 1 << 20

var endpoints = []endpoint{
	{path: "/healthz", method: http.MethodGet},
	{path: "/readyz", method: http.MethodGet},
	{path: "/corpus", method: http.MethodGet},
	{path: "/admin/reload", method: http.MethodPost,
		refuse: "reload is per-shard; POST /admin/reload on each backend (the gateway tracks epochs per request)"},
	{path: "/api/table1", method: http.MethodGet, table: 1,
		build: func(in *input) (any, *Error) { return BuildTable1(in.a), nil },
		merge: mergeTable1},
	{path: "/api/table2", method: http.MethodGet, table: 2,
		build:   func(in *input) (any, *Error) { return BuildTable2(in.a), nil },
		partial: &partial{build: func(in *input) any { return BuildTable2Partial(in.a) }},
		merge:   mergeTable2},
	{path: "/api/table3", method: http.MethodGet, table: 3,
		build: func(in *input) (any, *Error) { return BuildTable3(in.a), nil },
		merge: mergeTable3},
	{path: "/api/table4", method: http.MethodGet, table: 4,
		build:   func(in *input) (any, *Error) { return BuildTable4(in.a), nil },
		partial: &partial{build: func(in *input) any { return BuildTable4Partial(in.a) }},
		merge:   mergeTable4},
	// Table V cells are raw counts, so shards answer the regular
	// endpoint. A shard clamps the split to its own slice's range, which
	// leaves its cells unchanged: every split below the slice or at and
	// after its last year yields the same cells.
	{path: "/api/table5", method: http.MethodGet, table: 5,
		canon: func(c *canonReq, p *params) {
			p.split = c.year("split", c.int("split", defaultSplitYear, 1900, 2100))
		},
		build: func(in *input) (any, *Error) { return BuildTable5(in.a, in.split), nil },
		merge: mergeTable5},
	{path: "/api/temporal", method: http.MethodGet,
		canon: func(c *canonReq, p *params) {
			if p.os = c.q.Get("os"); p.os == "" {
				c.fail(errBadParam("missing required parameter os"))
			}
			c.set("os", p.os)
		},
		build: func(in *input) (any, *Error) {
			return badParam(BuildTemporal(in.a, in.os))
		},
		merge: mergeTemporal},
	{path: "/api/kwise", method: http.MethodGet,
		build: func(in *input) (any, *Error) { return BuildKWise(in.a), nil },
		merge: mergeKWise},
	// n canonicalizes onto the valid-entry count, so every "give me
	// everything" request shares one key. The shard prefix clamps to the
	// shard's own record count inside the build.
	{path: "/api/mostshared", method: http.MethodGet,
		canon: func(c *canonReq, p *params) {
			p.n = c.count("n", c.int("n", defaultMostShared, 1, 1<<30))
		},
		build: func(in *input) (any, *Error) { return BuildMostShared(in.a, in.n), nil },
		partial: &partial{keys: []string{"n"},
			build: func(in *input) any { return BuildMostSharedPartial(in.a, in.n) }},
		merge: mergeMostShared},
	{path: "/api/select", method: http.MethodGet, canon: canonSelect,
		build: func(in *input) (any, *Error) {
			return BuildSelect(in.a, in.k, in.onePerFamily, in.to, in.top), nil
		},
		partial: &partial{keys: []string{"to"},
			build: func(in *input) any { return BuildSelectPartial(in.a, in.to) }},
		merge: mergeSelect},
	{path: "/api/releases", method: http.MethodGet, table: 6, canon: canonReleases,
		build: func(in *input) (any, *Error) {
			if in.osA == "" {
				return badParam(BuildReleases(in.a))
			}
			return badParam(BuildReleaseOverlap(in.a, in.osA, in.verA, in.osB, in.verB))
		},
		merge: mergeReleases},
	{path: "/api/attack", method: http.MethodGet, canon: canonAttack,
		build: func(in *input) (any, *Error) {
			return badParam(BuildAttack(in.a, in.name, in.oses, in.f, in.trials))
		},
		refuse: "the attack Monte Carlo needs the whole corpus in one process; run it against an unsharded server"},
	{path: "/api/sqltable3", method: http.MethodGet, sql: true,
		build: buildSQLTable3,
		merge: mergeSQLTable3},
	{path: "/api/query", method: http.MethodPost, sql: true, canon: canonQuery,
		build: buildQuery,
		merge: mergeQuery},
	{path: "/api/recommend", method: http.MethodPost, canon: canonRecommend,
		build:  func(in *input) (any, *Error) { return badParam(BuildRecommend(in.a, in.spec)) },
		refuse: "the schedule search simulates over the whole corpus in one process; run it against an unsharded server"},
}

// params are one request's canonical parameters. vals encodes them: it
// is the cache key's query and the query every shard leg receives. The
// typed fields are what builders and merges read.
type params struct {
	vals url.Values

	split, n, k, to, top, f, trials int
	onePerFamily                    bool
	os, name                        string
	oses                            []string
	osA, verA, osB, verB            string

	query httpapi.QueryRequest // the /api/query body, forwarded to every shard
	args  []relstore.Value
	spec  httpapi.RecommendRequest
}

// input is what one build reads: the epoch's analysis, the canonical
// parameters and, for the SQL surface, the server's database.
type input struct {
	*params
	a *osdiversity.Analysis
	s *Server
}

// cacheKey is the response-cache key of canonical parameters on path.
func cacheKey(path string, vals url.Values) string {
	if len(vals) == 0 {
		return path
	}
	return path + "?" + vals.Encode()
}

// partialPath is where shards serve e's partial.
func (e *endpoint) partialPath() string { return "/api/partial/" + e.path[len("/api/"):] }

// canonicalize runs e's canon step over one request.
func (e *endpoint) canonicalize(c *canonReq) (*params, *Error) {
	p := &params{}
	if e.canon != nil {
		if c.r != nil {
			c.q = c.r.URL.Query()
		}
		e.canon(c, p)
		if c.err != nil {
			return nil, c.err
		}
	}
	p.vals = c.vals
	return p, nil
}

// canonReq canonicalizes one request. Each helper records the canonical
// value it returns in vals; the first failure sticks in err and turns
// every later step into a no-op, so the first error a request breaks is
// the one it gets. The clamps read the corpus on first use — at the
// gateway that resolves the merged shard metadata, so a request that
// fails validation never pays for it.
type canonReq struct {
	w http.ResponseWriter
	r *http.Request
	q url.Values

	// The corpus the clamps read: one epoch's analysis on a server, the
	// resolved shard vector at the gateway.
	a   *osdiversity.Analysis
	vec Vector
	// given marks a shard partial route. The gateway canonicalized the
	// values against the merged corpus already, so they are taken as
	// given: nothing is clamped again, and a lower bound is 0, the floor
	// of a clamp against an empty corpus.
	given bool

	bounds *Bounds
	vals   url.Values
	err    *Error
}

func (c *canonReq) fail(e *Error) {
	if c.err == nil {
		c.err = e
	}
}

func (c *canonReq) set(name, v string) {
	if c.vals == nil {
		c.vals = url.Values{}
	}
	c.vals.Set(name, v)
}

// int parses an optional integer parameter in [min, max].
func (c *canonReq) int(name string, def, min, max int) int {
	if c.err != nil {
		return 0
	}
	n := def
	if raw := c.q.Get(name); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			c.fail(errBadParam(fmt.Sprintf("%s=%q is not an integer", name, raw)))
			return 0
		}
		if c.given {
			min = 0
		}
		if v < min || v > max {
			c.fail(errBadParam(fmt.Sprintf("%s=%d out of range [%d, %d]", name, v, min, max)))
			return 0
		}
		n = v
	}
	c.set(name, strconv.Itoa(n))
	return n
}

// bool parses an optional boolean parameter.
func (c *canonReq) bool(name string) bool {
	if c.err != nil {
		return false
	}
	v := false
	if raw := c.q.Get(name); raw != "" {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			c.fail(errBadParam(fmt.Sprintf("%s=%q is not a boolean", name, raw)))
			return false
		}
		v = b
	}
	c.set(name, strconv.FormatBool(v))
	return v
}

// corpus returns the bounds the clamps read, nil when the request has
// already failed or takes its values as given.
func (c *canonReq) corpus() *Bounds {
	if c.err != nil || c.given {
		return nil
	}
	if c.bounds == nil {
		if c.vec == nil {
			b := analysisBounds(c.a)
			c.bounds = &b
		} else {
			b, err := c.vec.Bounds()
			if err != nil {
				c.fail(err)
				return nil
			}
			c.bounds = &b
		}
	}
	return c.bounds
}

// year clamps a split or selection end year (see CanonSplitYear).
func (c *canonReq) year(name string, y int) int {
	if b := c.corpus(); b != nil {
		y = b.year(y)
		c.set(name, strconv.Itoa(y))
	}
	return y
}

// count clamps a listing limit (see CanonListLimit).
func (c *canonReq) count(name string, n int) int {
	if b := c.corpus(); b != nil {
		n = b.count(n)
		c.set(name, strconv.Itoa(n))
	}
	return n
}

// Bounds are the corpus figures canonicalization clamps against: the
// valid entries' publication year range and their count. The gateway
// takes them from its merged shard metadata.
type Bounds struct {
	YearLo, YearHi, Valid int
}

func analysisBounds(a *osdiversity.Analysis) Bounds {
	lo, hi := a.YearRange()
	return Bounds{YearLo: lo, YearHi: hi, Valid: a.ValidCount()}
}

// year clamps to [YearLo-1, YearHi]: every year below the first
// publication year yields the same all-observed table, and every year
// at or beyond the last the same all-history table.
func (b Bounds) year(y int) int {
	switch {
	case b.YearLo == 0 && b.YearHi == 0:
		return y // empty corpus: nothing to clamp against
	case y < b.YearLo-1:
		return b.YearLo - 1
	case y > b.YearHi:
		return b.YearHi
	}
	return y
}

// count clamps to the valid-entry count: every larger limit returns the
// identical full listing.
func (b Bounds) count(n int) int { return min(n, b.Valid) }

// CanonSplitYear clamps a Table V split year (or selection end year) to
// the corpus's meaningful range [minYear-1, maxYear], as the server
// does before keying its cache, so cosmetically different requests
// share one computation and the echoed year is deterministic.
func CanonSplitYear(a *osdiversity.Analysis, year int) int { return analysisBounds(a).year(year) }

// CanonListLimit clamps a listing limit to the corpus's valid-entry
// count — every larger limit returns the identical full listing, so
// they canonicalize onto one cache key.
func CanonListLimit(a *osdiversity.Analysis, n int) int { return analysisBounds(a).count(n) }

func canonSelect(c *canonReq, p *params) {
	p.k = c.int("k", defaultSelectK, 1, 8)
	p.onePerFamily = c.bool("one-per-family")
	p.to = c.int("to", defaultSplitYear, 1900, 2100)
	p.top = c.int("top", 0, 0, 1<<30)
	p.to = c.year("to", p.to)
}

// canonReleases accepts all four of a, va, b, vb (one Table VI cell) or
// none (the whole grid).
func canonReleases(c *canonReq, p *params) {
	p.osA, p.verA, p.osB, p.verB = c.q.Get("a"), c.q.Get("va"), c.q.Get("b"), c.q.Get("vb")
	set := 0
	for _, v := range []string{p.osA, p.verA, p.osB, p.verB} {
		if v != "" {
			set++
		}
	}
	switch set {
	case 0:
	case 4:
		c.vals = url.Values{"a": {p.osA}, "va": {p.verA}, "b": {p.osB}, "vb": {p.verB}}
	default:
		c.fail(errBadParam("release overlap needs all of a, va, b, vb (or none for the Table VI grid)"))
	}
}

func canonAttack(c *canonReq, p *params) {
	p.oses = c.q["os"]
	if len(p.oses) == 0 {
		c.fail(errBadParam("missing required repeated parameter os"))
		return
	}
	p.f = c.int("f", 1, 1, 16)
	if c.err == nil && len(p.oses) != 3*p.f+1 {
		c.fail(errBadParam(fmt.Sprintf("got %d os members, need 3f+1 = %d", len(p.oses), 3*p.f+1)))
	}
	p.trials = c.int("trials", defaultTrials, 1, 1_000_000)
	p.name = c.q.Get("name")
	if p.name == "" {
		p.name = "configuration"
	}
	c.set("name", p.name)
	c.vals["os"] = p.oses
}

// badParam maps a builder's error onto the bad_param envelope.
func badParam[T any](doc T, err error) (any, *Error) {
	if err != nil {
		return nil, errBadParam(err.Error())
	}
	return doc, nil
}

// Route is one declared endpoint as the test sweeps see it.
type Route struct {
	Path   string
	Method string
	// Computed endpoints answer through canonicalization, a build and
	// the Responder; the others each tier answers with its own handler.
	Computed bool
	// Merged endpoints scatter and merge at the gateway; Refused ones
	// answer 501 unsupported_on_gateway there.
	Merged  bool
	Refused bool
}

// Routes lists the endpoint table in declaration order.
func Routes() []Route {
	out := make([]Route, 0, len(endpoints))
	for _, e := range endpoints {
		out = append(out, Route{Path: e.path, Method: e.method, Computed: e.build != nil,
			Merged: e.merge != nil, Refused: e.refuse != ""})
	}
	return out
}

// PaperTable renders the paper's Table n (1-6) as its endpoint answers
// a bare GET on a server over a: the documents `osdiv tables -json`
// prints.
func PaperTable(a *osdiversity.Analysis, n int) (any, error) {
	for i := range endpoints {
		if e := &endpoints[i]; n != 0 && e.table == n {
			p, aerr := e.canonicalize(&canonReq{a: a})
			if aerr == nil {
				var doc any
				if doc, aerr = e.build(&input{params: p, a: a}); aerr == nil {
					return doc, nil
				}
			}
			return nil, errors.New(aerr.Message)
		}
	}
	return nil, fmt.Errorf("unknown table %d", n)
}
