// Package gather is the scatter-gather front-end of the scale-out tier:
// `osdiv gateway -backends a,b,c` answers the same /api surface as one
// resident server by fanning every query out to N shard backends (each
// an `osdiv serve -shard i/N` owning a year-range slice of the corpus),
// merging their typed partial aggregates, and finalizing with the exact
// single-process arithmetic from internal/core — so a gateway over any
// shard count answers byte-identically to one server over the whole
// corpus.
//
// The gateway serves internal/server's endpoint table: each endpoint's
// canon step, merge and optional shard partial are declared there once,
// next to the server's build, and this package supplies the shard set
// the gateway routes scatter through. The merge rules exploit that the
// year-range shards partition the corpus (every vulnerability lives in
// exactly one shard):
//
//   - raw counts add: Table I/III rows, Table V cells, temporal series,
//     k-wise buckets, release overlaps and the SQL Table III matrix
//     merge by per-index sums of the regular endpoint documents;
//   - derived figures finalize from shard-summed raw halves served by
//     the /api/partial/* endpoints: Table II shares (core.ClassShares),
//     Table IV's filtered/sorted rows, Table III's filter-reduction
//     float (core.FilterReductionFrom over the merged pair columns),
//     the most-shared order (core.MergeMostShared over per-shard
//     prefixes) and §IV-C set ranking (core.RankSetsFromCosts over
//     summed cost vectors);
//   - /api/query scatters the POST to every shard and concatenates row
//     sets in shard order — legal only for plain SELECTs, so grouped,
//     aggregated, deduplicated, ordered or limited statements answer
//     501 unsupported_on_gateway;
//   - /api/attack, /api/recommend and /admin/reload are not mergeable
//     (the Monte Carlo and the schedule search are corpus-global;
//     shards reload individually) and answer 501.
//
// Parameters canonicalize once, against the merged corpus (the union
// year range and summed valid count of the shards' /corpus documents),
// and every leg receives the canonical values.
//
// Consistency across shards is epoch-vector based. Every request first
// resolves the per-shard epoch vector (a coalesced /readyz probe,
// cached for Config.RevalidateAfter); responses carry the joined
// vector in X-Osdiv-Epoch; each newly probed vector is numbered, and
// the merged-response cache is keyed by that number, so it flushes
// whenever any shard swaps or restarts; and each scattered leg's
// X-Osdiv-Epoch is checked against the resolved vector — a shard that
// hot-reloaded mid-request answers 503 epoch_skew rather than letting
// one merged document mix corpus generations.
//
// Degradation is typed, like the server's: an unreachable backend is
// 503 shard_unavailable naming the backend; a shard's own error
// envelope (bad_param, overloaded, not_ready, no_database, ...)
// forwards verbatim so gateway and single-server clients see the same
// errors; a structurally inconsistent shard set (different universes,
// row orders) is 502 shard_mismatch. In front of it all sits the
// server's Responder: singleflight coalescing, the bounded response
// cache and inflight/queue-wait shedding.
package gather

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"osdiversity/internal/httpapi"
	"osdiversity/internal/server"
)

// Config describes the backend set and the gateway's execution limits.
type Config struct {
	// Backends are the shard base URLs in shard order
	// ("http://host:port"); the gateway's merge indexes legs by this
	// order, so it must match the -shard numbering.
	Backends []string
	// Timeout bounds each scattered request attempt; 0 selects 30s.
	Timeout time.Duration
	// Retry bounds per-leg GET retries on transient failures; the zero
	// value selects 3 attempts with the client's default backoff.
	Retry httpapi.RetryPolicy
	// MaxInFlight bounds concurrently executing merged computations; 0
	// selects 2x the backend count.
	MaxInFlight int
	// MaxQueueWait bounds how long a request may wait for a compute
	// slot before being shed with 503 + Retry-After; 0 selects 5s.
	MaxQueueWait time.Duration
	// RevalidateAfter is how long a resolved epoch vector stays fresh
	// before the next request re-probes /readyz across the shards; 0
	// selects 100ms, negative probes on every request (tests use -1 to
	// observe a shard reload immediately).
	RevalidateAfter time.Duration

	// HTTP overrides the transport on every backend client (httptest
	// servers pass their own).
	HTTP *http.Client
}

func (cfg Config) withDefaults() Config {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Retry.Attempts <= 0 {
		cfg.Retry.Attempts = 3
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = max(2*len(cfg.Backends), 1)
	}
	if cfg.MaxQueueWait <= 0 {
		cfg.MaxQueueWait = 5 * time.Second
	}
	if cfg.RevalidateAfter == 0 {
		cfg.RevalidateAfter = 100 * time.Millisecond
	}
	return cfg
}

// Gateway resolves shard epoch vectors and scatters. Construct with New.
type Gateway struct {
	cfg Config
	mc  *httpapi.MultiClient
	rsp *server.Responder

	// Coalesced epoch-vector probe state.
	probeMu   sync.Mutex
	probing   chan struct{}
	lastProbe *probeResult
	probedAt  time.Time

	// Per-vector merged corpus metadata (global year range, summed
	// valid count) behind parameter canonicalization and /corpus.
	metaMu sync.Mutex
	meta   *shardMeta
}

// legError maps one scattered leg's failure: a shard's own error
// envelope forwards verbatim (same status, code and message a
// single-server client would see), a transport failure becomes 503
// shard_unavailable naming the backend.
func legError(backend string, err error) *server.Error {
	var he *httpapi.Error
	if errors.As(err, &he) {
		retry := 0
		if he.StatusCode == http.StatusServiceUnavailable {
			retry = 1
		}
		return &server.Error{Status: he.StatusCode, Code: he.Code, Message: he.Message, RetryAfter: retry}
	}
	return &server.Error{Status: http.StatusServiceUnavailable, Code: "shard_unavailable",
		Message: fmt.Sprintf("backend %s unreachable: %v", backend, err), RetryAfter: 1}
}

func errSkew(backend, got, want string) *server.Error {
	return &server.Error{Status: http.StatusServiceUnavailable, Code: "epoch_skew",
		Message: fmt.Sprintf("backend %s answered epoch %s, resolved vector expected %s; retry shortly",
			backend, got, want), RetryAfter: 1}
}

// New builds a gateway over the configured backend set.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gather: no backends configured")
	}
	cfg = cfg.withDefaults()
	mc := httpapi.NewMultiClient(cfg.Backends, cfg.Timeout, cfg.Retry)
	for _, c := range mc.Clients {
		c.HTTP = cfg.HTTP
	}
	return &Gateway{cfg: cfg, mc: mc, rsp: server.NewResponder(cfg.MaxInFlight, cfg.MaxQueueWait)}, nil
}

// Computes reports how many merged bodies the gateway has computed
// (cache misses that scattered). The coalescing tests assert N
// concurrent identical cold requests add exactly one.
func (g *Gateway) Computes() int64 { return g.rsp.Computes() }

// Handler returns the HTTP handler serving the gateway API.
func (g *Gateway) Handler() http.Handler {
	return server.GatewayHandler(g.resolveVector, g.rsp, map[string]http.HandlerFunc{
		"/healthz": g.handleHealth,
		"/readyz":  g.handleReady,
		"/corpus":  g.handleCorpus,
	})
}

// probeResult is one resolved epoch vector: per-shard epochs in
// backend order, their join (the X-Osdiv-Epoch the gateway answers
// with) and the number it was given. err is set when any shard was
// unreachable or not ready — the vector is unusable then.
type probeResult struct {
	epochs []string
	vec    string
	gen    uint64
	shards []httpapi.ShardStatus
	err    *server.Error
}

// resolve returns the current epoch vector, probing /readyz across the
// backends at most once per RevalidateAfter window and coalescing
// concurrent probes into one scatter. A probe whose vector differs from
// the previous probe's takes the next number, so the response cache
// sees a generation that only grows and changes with every swap.
func (g *Gateway) resolve() *probeResult {
	g.probeMu.Lock()
	if g.lastProbe != nil && g.cfg.RevalidateAfter > 0 &&
		time.Since(g.probedAt) < g.cfg.RevalidateAfter {
		pr := g.lastProbe
		g.probeMu.Unlock()
		return pr
	}
	if ch := g.probing; ch != nil {
		g.probeMu.Unlock()
		<-ch
		g.probeMu.Lock()
		pr := g.lastProbe
		g.probeMu.Unlock()
		return pr
	}
	ch := make(chan struct{})
	g.probing = ch
	g.probeMu.Unlock()

	pr := g.doProbe()

	g.probeMu.Lock()
	pr.gen = 1
	if last := g.lastProbe; last != nil {
		pr.gen = last.gen
		if last.vec != pr.vec {
			pr.gen++
		}
	}
	g.lastProbe, g.probedAt, g.probing = pr, time.Now(), nil
	g.probeMu.Unlock()
	close(ch)
	return pr
}

func (g *Gateway) doProbe() *probeResult {
	legs := g.mc.Scatter(context.Background(), "/readyz", nil)
	pr := &probeResult{
		epochs: make([]string, len(legs)),
		shards: make([]httpapi.ShardStatus, len(legs)),
	}
	for i, leg := range legs {
		st := httpapi.ShardStatus{Backend: leg.Backend}
		if leg.Err != nil {
			st.Status = "unreachable"
			st.Error = leg.Err.Error()
			var he *httpapi.Error
			if errors.As(leg.Err, &he) {
				st.Status = he.Code
			}
			if pr.err == nil {
				pr.err = legError(leg.Backend, leg.Err)
			}
		} else {
			var ready httpapi.Ready
			if derr := json.Unmarshal(leg.Body, &ready); derr != nil {
				st.Status = "malformed"
				st.Error = derr.Error()
				if pr.err == nil {
					pr.err = server.ErrMismatch(fmt.Sprintf("backend %s: malformed /readyz: %v", leg.Backend, derr))
				}
			} else {
				st.Status = ready.Status
				st.Epoch = ready.Epoch
				pr.epochs[i] = strconv.FormatUint(ready.Epoch, 10)
			}
		}
		pr.shards[i] = st
	}
	pr.vec = strings.Join(pr.epochs, ",")
	return pr
}

// shardMeta is the merged corpus identity of one numbered epoch
// vector: the union year range over non-empty shards, the summed valid
// count, and each backend's /corpus document (for the gateway /corpus
// view).
type shardMeta struct {
	gen    uint64
	bounds server.Bounds
	corpus []httpapi.CorpusInfo
}

// metaFor returns the merged corpus metadata for a resolved vector,
// scattering /corpus once per vector change.
func (g *Gateway) metaFor(pr *probeResult) (*shardMeta, *server.Error) {
	g.metaMu.Lock()
	if m := g.meta; m != nil && m.gen == pr.gen {
		g.metaMu.Unlock()
		return m, nil
	}
	g.metaMu.Unlock()

	legs, err := g.scatter(pr, "/corpus", nil, nil)
	if err != nil {
		return nil, err
	}
	m := &shardMeta{gen: pr.gen, corpus: make([]httpapi.CorpusInfo, len(legs))}
	b := &m.bounds
	for i, leg := range legs {
		info := &m.corpus[i]
		if derr := json.Unmarshal(leg.Body, info); derr != nil {
			return nil, server.ErrMismatch(fmt.Sprintf("backend %s: malformed /corpus: %v", leg.Backend, derr))
		}
		b.Valid += info.ValidEntries
		if info.ValidEntries > 0 {
			if b.YearLo == 0 || info.YearFrom < b.YearLo {
				b.YearLo = info.YearFrom
			}
			b.YearHi = max(b.YearHi, info.YearTo)
		}
	}

	g.metaMu.Lock()
	if g.meta == nil || g.meta.gen < pr.gen {
		g.meta = m
	}
	g.metaMu.Unlock()
	return m, nil
}

// resolveVector resolves the epoch vector one request answers from.
func (g *Gateway) resolveVector() (server.Vector, *server.Error) {
	pr := g.resolve()
	if pr.err != nil {
		return nil, pr.err
	}
	return vector{g, pr}, nil
}

// vector is a resolved epoch vector as the endpoint table's gateway
// routes use it.
type vector struct {
	g  *Gateway
	pr *probeResult
}

func (v vector) Epochs() string { return v.pr.vec }
func (v vector) Gen() uint64    { return v.pr.gen }

func (v vector) Bounds() (server.Bounds, *server.Error) {
	m, err := v.g.metaFor(v.pr)
	if err != nil {
		return server.Bounds{}, err
	}
	return m.bounds, nil
}

func (v vector) Scatter(path string, query url.Values, body any) ([]server.Leg, *server.Error) {
	return v.g.scatter(v.pr, path, query, body)
}

// scatter fans one request out to every backend — a GET of path?query,
// or a POST of body when non-nil — and settles the legs: any leg error
// maps through legError, and every leg's epoch header must match the
// resolved vector (a shard reloading between probe and scatter answers
// epoch_skew rather than mixing generations into one merged document).
// Returns the legs in backend order.
func (g *Gateway) scatter(pr *probeResult, path string, query url.Values, body any) ([]server.Leg, *server.Error) {
	var resps []httpapi.ShardResponse
	if body != nil {
		resps = g.mc.ScatterPost(context.Background(), path, body)
	} else {
		resps = g.mc.Scatter(context.Background(), path, query)
	}
	legs := make([]server.Leg, len(resps))
	for i, r := range resps {
		if r.Err != nil {
			return nil, legError(r.Backend, r.Err)
		}
		if r.Epoch != pr.epochs[i] {
			return nil, errSkew(r.Backend, r.Epoch, pr.epochs[i])
		}
		legs[i] = server.Leg{Backend: r.Backend, Path: path, Body: r.Body}
	}
	return legs, nil
}

// The tier-specific handlers answer directly, outside the Responder.

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	server.WriteDoc(w, httpapi.Health{Status: "ok"})
}

// handleReady aggregates per-shard readiness. All backends ready
// answers the GatewayReady document; any unreachable or unready
// backend answers 503 with per-shard detail in the message, so probes
// and operators see which leg is the problem.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	pr := g.resolve()
	if pr.err != nil {
		msg := "gateway degraded:"
		for _, st := range pr.shards {
			if st.Status != "ok" {
				msg += fmt.Sprintf(" %s=%s", st.Backend, st.Status)
			}
		}
		server.WriteError(w, &server.Error{Status: http.StatusServiceUnavailable,
			Code: "not_ready", Message: msg, RetryAfter: 1})
		return
	}
	w.Header().Set("X-Osdiv-Epoch", pr.vec)
	server.WriteDoc(w, httpapi.GatewayReady{Status: "ok", Epochs: pr.vec, Shards: pr.shards})
}

func (g *Gateway) handleCorpus(w http.ResponseWriter, r *http.Request) {
	pr := g.resolve()
	if pr.err != nil {
		server.WriteError(w, pr.err)
		return
	}
	w.Header().Set("X-Osdiv-Epoch", pr.vec)
	m, err := g.metaFor(pr)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	doc := httpapi.GatewayCorpus{
		Backends:     g.cfg.Backends,
		ValidEntries: m.bounds.Valid,
		YearFrom:     m.bounds.YearLo,
		YearTo:       m.bounds.YearHi,
		Epochs:       pr.vec,
		Shards:       make([]httpapi.ShardCorpus, len(m.corpus)),
	}
	for i, info := range m.corpus {
		doc.Shards[i] = httpapi.ShardCorpus{
			Backend:      g.cfg.Backends[i],
			Shard:        info.Shard,
			Source:       info.Source,
			ValidEntries: info.ValidEntries,
			YearFrom:     info.YearFrom,
			YearTo:       info.YearTo,
			Epoch:        info.Epoch,
		}
	}
	server.WriteDoc(w, doc)
}
