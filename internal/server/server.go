// Package server is the resident HTTP/JSON query service over the
// memoized Study: `osdiv serve` loads a corpus once and answers every
// facade query — the paper's tables, temporal series, k-wise listings,
// replica selection, release overlaps, attack simulation and the
// SQL-path Table III — from memory under concurrent load.
//
// The server is scale-honest rather than a thin mux:
//
//   - every endpoint is declared once, in the endpoint table
//     (endpoints.go), which the server, the shard partial routes, the
//     gateway (internal/gather) and the osdiv -json printers derive
//     from; each validates and canonicalizes its parameters in one canon
//     step and answers errors with the typed httpapi.ErrorEnvelope;
//   - computed answers go through one Responder, shared with the
//     gateway: a bounded response cache keyed by the epoch the body was
//     computed on (a hot reload can never serve a stale mix of old and
//     new corpus bytes), singleflight coalescing of identical requests,
//     at most MaxInFlight concurrent builds with 503 + Retry-After
//     shedding past MaxQueueWait, and streaming of large listings and
//     query results, byte-identical to httpapi.Marshal of the document.
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
	rsp    *Responder

	reload atomic.Pointer[reloader]

	// The newest epoch a computed request resolved, behind the plan-cache
	// flush on reload.
	planMu    sync.Mutex
	planEpoch atomic.Uint64

	// The imported database behind /api/query and the plan-cache stats
	// on /corpus: opened lazily on the first query, resident after.
	dbOnce sync.Once
	dbErr  error
	db     atomic.Pointer[vulndb.DB]
}

// New builds a server over one immutable analysis — the corpus is
// installed as epoch 1 and never reloads unless SetReloader attaches a
// source. The analysis must have been constructed with the same worker
// count as cfg.Workers reports. Only tests call it (server's and
// gather's); the CLI and e2ebench build servers with NewResident.
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
	return &Server{epochs: m, cfg: cfg, rsp: NewResponder(cfg.MaxInFlight, cfg.MaxQueueWait)}
}

// SetReloader attaches the reload trigger POST /admin/reload runs —
// typically a closure over Manager.TryReload and a delta-feed glob.
// Safe to call while serving.
func (s *Server) SetReloader(fn func() (*epoch.Epoch, error)) {
	s.reload.Store(&fn)
}

// Computes reports how many response bodies the server has computed
// (cache misses that executed a build). The coalescing tests assert N
// concurrent identical cold requests add exactly one.
func (s *Server) Computes() int64 { return s.rsp.Computes() }

// Handler returns the HTTP handler serving the whole API.
func (s *Server) Handler() http.Handler {
	return newMux(map[string]http.HandlerFunc{
		"/healthz":      s.handleHealth,
		"/readyz":       s.handleReady,
		"/corpus":       s.handleCorpus,
		"/admin/reload": s.handleReload,
	}, s.route, s.partialRoute)
}

// route serves one computed endpoint from the epoch the request
// resolves.
func (s *Server) route(e *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ep, ok := s.currentEpoch(w)
		if !ok {
			return
		}
		if e.sql && !s.sqlEnabled() {
			WriteError(w, errNoDatabase())
			return
		}
		p, err := e.canonicalize(&canonReq{w: w, r: r, a: ep.Analysis})
		if err != nil {
			WriteError(w, err)
			return
		}
		s.respond(w, ep, cacheKey(e.path, p.vals), func() (any, *Error) {
			return e.build(&input{params: p, a: ep.Analysis, s: s})
		})
	}
}

// partialRoute serves the additive half of a merged endpoint to the
// gateway. The parameters arrive canonicalized against the merged
// corpus and are taken as given: a shard clamping them to its own slice
// would desynchronize the legs.
func (s *Server) partialRoute(e *endpoint) http.HandlerFunc {
	path := e.partialPath()
	return func(w http.ResponseWriter, r *http.Request) {
		ep, ok := s.currentEpoch(w)
		if !ok {
			return
		}
		p, err := e.canonicalize(&canonReq{w: w, r: r, a: ep.Analysis, given: true})
		if err != nil {
			WriteError(w, err)
			return
		}
		s.respond(w, ep, cacheKey(path, p.vals), func() (any, *Error) {
			return e.partial.build(&input{params: p, a: ep.Analysis}), nil
		})
	}
}

// respond answers one computed request through the Responder, keyed to
// the request's epoch. The first request to resolve a newer epoch also
// flushes the resident database's plan cache: a hot reload may have
// changed the corpus the SQL surface answers for, and a plan compiled
// against the previous generation must not survive the swap.
func (s *Server) respond(w http.ResponseWriter, ep *epoch.Epoch, key string, build func() (any, *Error)) {
	if ep.Seq > s.planEpoch.Load() {
		s.planMu.Lock()
		if seen := s.planEpoch.Load(); ep.Seq > seen {
			if db := s.db.Load(); db != nil && seen != 0 { // epoch 1 is boot, not a reload
				db.Store().InvalidatePlans()
			}
			s.planEpoch.Store(ep.Seq)
		}
		s.planMu.Unlock()
	}
	s.rsp.Respond(w, ep.Seq, key, build)
}

// currentEpoch resolves the epoch this request answers from. Every
// handler resolves exactly once at entry, so a reload that swaps
// mid-request cannot mix epochs within one response. Writes the 503
// not_ready envelope when no epoch is resident yet.
func (s *Server) currentEpoch(w http.ResponseWriter) (*epoch.Epoch, bool) {
	ep, ok := s.epochs.Current()
	if !ok {
		WriteError(w, errNotReady())
		return nil, false
	}
	w.Header().Set("X-Osdiv-Epoch", strconv.FormatUint(ep.Seq, 10))
	return ep, true
}

// The tier-specific handlers bypass the limiter, singleflight and
// cache: a liveness probe must answer immediately even when every
// compute slot is occupied by heavy API requests, and each document is
// trivial to render per request. /healthz stays "ok" for the whole
// process lifetime — readiness (a resident epoch) is /readyz's job.

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteDoc(w, httpapi.Health{Status: "ok"})
}

func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	ep, ok := s.currentEpoch(w)
	if !ok {
		return
	}
	st := s.epochs.Status()
	WriteDoc(w, BuildCorpus(ep.Analysis, ep.Source, s.cfg.Engine, s.cfg.Workers, s.cfg.Shard, s.sqlEnabled(),
		EpochStatus{
			Epoch:           ep.Seq,
			ReloadSuccesses: st.Successes,
			ReloadFailures:  st.Failures,
			LastReloadError: st.LastError,
			LastReloadUnix:  st.LastErrorUnix,
		}, s.planCacheInfo()))
}

// handleReady answers /readyz: 503 with the not_ready envelope until
// the first epoch is resident, then the Ready document. Orchestrators
// and the CI smokes gate traffic on this, not /healthz — a feed boot
// can take seconds during which the process is alive but answerless.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ep, ok := s.epochs.Current()
	if !ok {
		WriteError(w, errNotReady())
		return
	}
	WriteDoc(w, httpapi.Ready{Status: "ok", Epoch: ep.Seq})
}

// handleReload answers POST /admin/reload: trigger a hot swap and
// report the published epoch. Degradations map to typed envelopes —
// the prior epoch keeps serving through every one of them.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	fn := s.reload.Load()
	if fn == nil {
		WriteError(w, &Error{Status: http.StatusNotFound, Code: "no_reload_source",
			Message: "server was not started with a reloadable corpus (osdiv -feeds ... serve -watch)"})
		return
	}
	ep, err := (*fn)()
	switch {
	case errors.Is(err, epoch.ErrReloadInProgress):
		WriteError(w, &Error{Status: http.StatusConflict, Code: "reload_in_progress",
			Message: "another reload is running; retry shortly", RetryAfter: 1})
		return
	case errors.Is(err, epoch.ErrNoDelta):
		WriteError(w, &Error{Status: http.StatusConflict, Code: "no_delta",
			Message: "no delta feeds to apply"})
		return
	case err != nil:
		WriteError(w, &Error{Status: http.StatusInternalServerError, Code: "reload_failed",
			Message: err.Error()})
		return
	}
	WriteDoc(w, httpapi.ReloadResult{
		Epoch:         ep.Seq,
		Source:        ep.Source,
		ValidEntries:  ep.Analysis.ValidCount(),
		SwappedAtUnix: ep.SwappedAt.Unix(),
	})
}
