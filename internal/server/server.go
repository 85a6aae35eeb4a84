// Package server is the resident HTTP/JSON query service over the
// memoized Study: `osdiv serve` loads a corpus once and answers every
// facade query — the paper's tables, temporal series, k-wise listings,
// replica selection, release overlaps, attack simulation and the
// SQL-path Table III — from memory under concurrent load.
//
// The server is scale-honest rather than a thin mux:
//
//   - every /api endpoint validates its parameters and answers errors
//     with the typed httpapi.ErrorEnvelope;
//   - identical requests coalesce through a singleflight group, so N
//     concurrent cold-cache requests trigger one Study computation and
//     receive byte-identical bodies;
//   - completed bodies land in a bounded response cache keyed by the
//     epoch they were computed on, so a hot reload can never serve a
//     stale mix of old and new corpus bytes;
//   - at most MaxInFlight computations run concurrently — a semaphore
//     sized from the WithParallelism worker count — and a request that
//     cannot get a slot within MaxQueueWait is shed with 503 and a
//     Retry-After header instead of queueing unboundedly;
//   - large listings (/api/mostshared) stream their JSON array
//     incrementally instead of materializing the body, and the streamed
//     bytes are identical to httpapi.Marshal of the same document.
//
// The corpus lives behind an internal/epoch.Manager: every request
// resolves the current epoch once at entry and answers entirely from
// it, so queries in flight across a reload finish on the epoch they
// started with. /readyz answers 503 until the first epoch is resident
// (a server booting from feeds installs its corpus asynchronously), and
// POST /admin/reload triggers a hot swap when a reloader is attached.
//
// Wire types live in internal/httpapi, shared with the osdiv -json
// printers so CLI and server output can be diffed byte-for-byte.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osdiversity"
	"osdiversity/internal/epoch"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/vulndb"
)

// Config describes the corpus the server answers for and its execution
// limits.
type Config struct {
	// Source names the loaded corpus for /corpus ("calibrated",
	// "feeds:<dir>", "db:<path>", "synthetic:<n>").
	Source string
	// Engine is the analysis engine name /corpus reports; empty means
	// "bitset", the only engine.
	Engine string
	// Workers is the WithParallelism worker count the analysis was
	// built with (1 = serial).
	Workers int
	// DBPath, when non-empty, enables /api/sqltable3 over the imported
	// database.
	DBPath string
	// Shard is the year-range slice this backend owns ("i/N"), empty for
	// a whole-corpus server. Purely identity: it flows to /corpus so the
	// gateway (and operators) can see which slice a backend answers for.
	Shard string
	// MaxInFlight bounds concurrently executing computations; 0 selects
	// max(Workers, 1).
	MaxInFlight int
	// CacheLimit bounds the response cache entry count; 0 selects 1024.
	CacheLimit int
	// MaxQueueWait bounds how long a request may wait for a compute
	// slot before being shed with 503 + Retry-After; 0 selects 5s.
	MaxQueueWait time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = cfg.Workers
	}
	if cfg.CacheLimit <= 0 {
		cfg.CacheLimit = 1024
	}
	if cfg.MaxQueueWait <= 0 {
		cfg.MaxQueueWait = 5 * time.Second
	}
	if cfg.Engine == "" {
		cfg.Engine = "bitset"
	}
	if cfg.Source == "" {
		cfg.Source = "calibrated"
	}
	return cfg
}

// reloader builds, validates and swaps in the next epoch.
type reloader = func() (*epoch.Epoch, error)

// Server answers the query API over the epochs a Manager publishes.
// Construct with New (one immutable corpus) or NewResident (a manager
// that hot-reloads live).
type Server struct {
	epochs *epoch.Manager
	cfg    Config

	reload atomic.Pointer[reloader]

	limiter chan struct{}

	mu         sync.Mutex
	calls      map[string]*call
	queryCalls map[string]*queryCall
	cache      map[string][]byte
	cacheEpoch uint64

	// The imported database behind /api/query and the plan-cache stats
	// on /corpus: opened lazily on the first query, resident after.
	dbOnce sync.Once
	dbErr  error
	db     atomic.Pointer[vulndb.DB]

	computes atomic.Int64
}

// call is one in-flight singleflight computation.
type call struct {
	done chan struct{}
	body []byte
	err  *apiError
}

// apiError is a handler failure destined for the JSON error envelope.
// retryAfter > 0 additionally sets a Retry-After header, telling
// well-behaved clients when the condition (overload, reload in
// progress, still booting) is worth another attempt.
type apiError struct {
	status     int
	code       string
	message    string
	retryAfter int
}

func errBadParam(msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_param", message: msg}
}

func errNotReady() *apiError {
	return &apiError{status: http.StatusServiceUnavailable, code: "not_ready",
		message: "no corpus resident yet; retry shortly", retryAfter: 1}
}

func errOverloaded() *apiError {
	return &apiError{status: http.StatusServiceUnavailable, code: "overloaded",
		message: "all compute slots busy; retry shortly", retryAfter: 1}
}

// New builds a server over one immutable analysis — the corpus is
// installed as epoch 1 and never reloads unless SetReloader attaches a
// source. The analysis must have been constructed with the same worker
// count as cfg.Workers reports.
func New(a *osdiversity.Analysis, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := epoch.NewManager(epoch.Config{})
	m.Install(a, cfg.Source)
	return newServer(m, cfg)
}

// NewResident builds a server over an epoch manager. The manager may be
// empty (boot still loading): every query answers 503 not_ready until
// the first epoch is installed.
func NewResident(m *epoch.Manager, cfg Config) *Server {
	return newServer(m, cfg.withDefaults())
}

func newServer(m *epoch.Manager, cfg Config) *Server {
	return &Server{
		epochs:     m,
		cfg:        cfg,
		limiter:    make(chan struct{}, cfg.MaxInFlight),
		calls:      make(map[string]*call),
		queryCalls: make(map[string]*queryCall),
		cache:      make(map[string][]byte),
	}
}

// SetReloader attaches the reload trigger POST /admin/reload runs —
// typically a closure over Manager.TryReload and a delta-feed glob.
// Safe to call while serving.
func (s *Server) SetReloader(fn func() (*epoch.Epoch, error)) {
	s.reload.Store(&fn)
}

// Epochs returns the manager the server answers from.
func (s *Server) Epochs() *epoch.Manager { return s.epochs }

// Computes reports how many response bodies the server has computed
// (cache misses that executed a build). The coalescing tests assert N
// concurrent identical cold requests add exactly one.
func (s *Server) Computes() int64 { return s.computes.Load() }

// Handler returns the HTTP handler serving the whole API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.get(s.handleHealth))
	mux.HandleFunc("/readyz", s.get(s.handleReady))
	mux.HandleFunc("/corpus", s.get(s.handleCorpus))
	mux.HandleFunc("/admin/reload", s.post(s.handleReload))
	mux.HandleFunc("/api/table1", s.get(s.handleTable1))
	mux.HandleFunc("/api/table2", s.get(s.handleTable2))
	mux.HandleFunc("/api/table3", s.get(s.handleTable3))
	mux.HandleFunc("/api/table4", s.get(s.handleTable4))
	mux.HandleFunc("/api/table5", s.get(s.handleTable5))
	mux.HandleFunc("/api/temporal", s.get(s.handleTemporal))
	mux.HandleFunc("/api/kwise", s.get(s.handleKWise))
	mux.HandleFunc("/api/mostshared", s.get(s.handleMostShared))
	mux.HandleFunc("/api/select", s.get(s.handleSelect))
	mux.HandleFunc("/api/releases", s.get(s.handleReleases))
	mux.HandleFunc("/api/attack", s.get(s.handleAttack))
	mux.HandleFunc("/api/sqltable3", s.get(s.handleSQLTable3))
	mux.HandleFunc("/api/query", s.post(s.handleQuery))
	mux.HandleFunc("/api/recommend", s.post(s.handleRecommend))
	mux.HandleFunc("/api/partial/table2", s.get(s.handlePartialTable2))
	mux.HandleFunc("/api/partial/table4", s.get(s.handlePartialTable4))
	mux.HandleFunc("/api/partial/table5", s.get(s.handlePartialTable5))
	mux.HandleFunc("/api/partial/mostshared", s.get(s.handlePartialMostShared))
	mux.HandleFunc("/api/partial/select", s.get(s.handlePartialSelect))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &apiError{status: http.StatusNotFound, code: "not_found",
			message: "unknown endpoint " + r.URL.Path})
	})
	return mux
}

// get wraps a handler with the method check every query endpoint shares.
func (s *Server) get(h http.HandlerFunc) http.HandlerFunc {
	return s.method(http.MethodGet, h)
}

// post wraps the admin endpoints, which mutate and must not be GETs.
func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return s.method(http.MethodPost, h)
}

func (s *Server) method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			writeError(w, &apiError{status: http.StatusMethodNotAllowed,
				code: "method_not_allowed", message: r.Method + " not allowed; use " + want})
			return
		}
		h(w, r)
	}
}

// currentEpoch resolves the epoch this request answers from. Every
// handler resolves exactly once at entry, so a reload that swaps
// mid-request cannot mix epochs within one response. Writes the 503
// not_ready envelope when no epoch is resident yet.
func (s *Server) currentEpoch(w http.ResponseWriter) (*epoch.Epoch, bool) {
	ep, ok := s.epochs.Current()
	if !ok {
		writeError(w, errNotReady())
		return nil, false
	}
	w.Header().Set("X-Osdiv-Epoch", strconv.FormatUint(ep.Seq, 10))
	return ep, true
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	body, err := httpapi.Marshal(httpapi.ErrorEnvelope{
		Error: httpapi.ErrorBody{Code: e.code, Message: e.message},
	})
	if err != nil {
		http.Error(w, e.message, e.status)
		return
	}
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	w.Write(body)
}

// writeBody emits a cached or freshly computed 200 body.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// respondDirect marshals and writes a document immediately, without
// the limiter, singleflight or cache — for the cheap always-available
// endpoints (/healthz, /readyz, /corpus, /admin/reload).
func (s *Server) respondDirect(w http.ResponseWriter, doc any) {
	body, err := httpapi.Marshal(doc)
	if err != nil {
		writeError(w, &apiError{status: http.StatusInternalServerError,
			code: "encode_failed", message: err.Error()})
		return
	}
	writeBody(w, body)
}

// respond serves one computed endpoint: response-cache lookup, then
// singleflight coalescing, then the bounded compute path. key must
// canonically encode every parameter the build depends on; respond
// prefixes it with the resolved epoch, so requests racing a reload
// coalesce and cache strictly within their own epoch.
func (s *Server) respond(w http.ResponseWriter, ep *epoch.Epoch, key string, build func() (any, *apiError)) {
	key = fmt.Sprintf("e%d|%s", ep.Seq, key)

	s.mu.Lock()
	s.pruneForEpochLocked(ep.Seq)
	if body, ok := s.cache[key]; ok {
		s.mu.Unlock()
		writeBody(w, body)
		return
	}
	if c, ok := s.calls[key]; ok {
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			writeError(w, c.err)
			return
		}
		writeBody(w, c.body)
		return
	}
	c := &call{done: make(chan struct{})}
	s.calls[key] = c
	s.mu.Unlock()

	func() {
		// The leader must always unregister the call and wake the
		// waiters, even when a build panics — a wedged key would block
		// every later request for this endpoint forever. A panic
		// becomes a 500 envelope for the leader and all coalesced
		// waiters.
		defer func() {
			if r := recover(); r != nil {
				c.err = &apiError{status: http.StatusInternalServerError,
					code: "internal_panic", message: fmt.Sprint(r)}
			}
			s.mu.Lock()
			delete(s.calls, key)
			// Don't re-seed a pruned cache with a superseded epoch's
			// body: a slow build finishing after a swap would otherwise
			// park bytes nothing will ever look up again.
			if c.err == nil && ep.Seq >= s.cacheEpoch {
				s.storeLocked(key, c.body)
			}
			s.mu.Unlock()
			close(c.done)
		}()
		c.body, c.err = s.compute(build)
	}()

	if c.err != nil {
		writeError(w, c.err)
		return
	}
	writeBody(w, c.body)
}

// acquire takes a compute slot, waiting at most MaxQueueWait; a request
// that cannot get one is shed with the overloaded envelope. The wait is
// deliberately not tied to the request context: coalesced waiters share
// the leader's outcome, and a canceled leader must not poison them.
func (s *Server) acquire() *apiError {
	select {
	case s.limiter <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(s.cfg.MaxQueueWait)
	defer t.Stop()
	select {
	case s.limiter <- struct{}{}:
		return nil
	case <-t.C:
		return errOverloaded()
	}
}

func (s *Server) release() { <-s.limiter }

// compute runs one build under the in-flight limiter and marshals the
// document.
func (s *Server) compute(build func() (any, *apiError)) ([]byte, *apiError) {
	if aerr := s.acquire(); aerr != nil {
		return nil, aerr
	}
	defer s.release()
	s.computes.Add(1)
	doc, aerr := build()
	if aerr != nil {
		return nil, aerr
	}
	body, err := httpapi.Marshal(doc)
	if err != nil {
		return nil, &apiError{status: http.StatusInternalServerError,
			code: "encode_failed", message: err.Error()}
	}
	return body, nil
}

// pruneForEpochLocked is the forward-only cache prune: the first
// request to resolve a newer epoch drops every older epoch's bodies —
// they can never be requested again (epoch resolution is monotonic), so
// holding them would only crowd the bounded cache. The resident
// database's plan cache flushes with them: a hot reload may have
// changed the corpus the SQL surface answers for, and a plan compiled
// against the previous generation must not survive the swap.
func (s *Server) pruneForEpochLocked(seq uint64) {
	if seq <= s.cacheEpoch {
		return
	}
	swapped := s.cacheEpoch != 0 // seq 1 is boot, not a reload
	s.cacheEpoch = seq
	s.cache = make(map[string][]byte)
	if swapped {
		if db := s.db.Load(); db != nil {
			db.Store().InvalidatePlans()
		}
	}
}

// storeLocked inserts a body into the response cache, evicting an
// arbitrary entry at the cap. Entries never go stale — each epoch's
// bodies are immutable and the epoch prefix keeps generations apart —
// so the cap only bounds memory under parameter-sweep traffic.
func (s *Server) storeLocked(key string, body []byte) {
	if len(s.cache) >= s.cfg.CacheLimit {
		for k := range s.cache {
			delete(s.cache, k)
			break
		}
	}
	s.cache[key] = body
}

// handleReady answers /readyz: 503 with the not_ready envelope until
// the first epoch is resident, then the Ready document. Orchestrators
// and the CI smokes gate traffic on this, not /healthz — a feed boot
// can take seconds during which the process is alive but answerless.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ep, ok := s.epochs.Current()
	if !ok {
		writeError(w, errNotReady())
		return
	}
	s.respondDirect(w, httpapi.Ready{Status: "ok", Epoch: ep.Seq})
}

// handleReload answers POST /admin/reload: trigger a hot swap and
// report the published epoch. Degradations map to typed envelopes —
// the prior epoch keeps serving through every one of them.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	fn := s.reload.Load()
	if fn == nil {
		writeError(w, &apiError{status: http.StatusNotFound, code: "no_reload_source",
			message: "server was not started with a reloadable corpus (osdiv -feeds ... serve -watch)"})
		return
	}
	ep, err := (*fn)()
	switch {
	case errors.Is(err, epoch.ErrReloadInProgress):
		writeError(w, &apiError{status: http.StatusConflict, code: "reload_in_progress",
			message: "another reload is running; retry shortly", retryAfter: 1})
		return
	case errors.Is(err, epoch.ErrNoDelta):
		writeError(w, &apiError{status: http.StatusConflict, code: "no_delta",
			message: "no delta feeds to apply"})
		return
	case err != nil:
		writeError(w, &apiError{status: http.StatusInternalServerError, code: "reload_failed",
			message: err.Error()})
		return
	}
	s.respondDirect(w, httpapi.ReloadResult{
		Epoch:         ep.Seq,
		Source:        ep.Source,
		ValidEntries:  ep.Analysis.ValidCount(),
		SwappedAtUnix: ep.SwappedAt.Unix(),
	})
}
