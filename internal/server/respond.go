package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osdiversity/internal/httpapi"
)

// Error is a failure destined for the JSON error envelope, the one
// shape both tiers answer with. RetryAfter > 0 additionally sets a
// Retry-After header, telling well-behaved clients when the condition
// (overload, reload in progress, still booting) is worth another
// attempt.
type Error struct {
	Status     int
	Code       string
	Message    string
	RetryAfter int
}

func errBadParam(msg string) *Error {
	return &Error{Status: http.StatusBadRequest, Code: "bad_param", Message: msg}
}

func errNotReady() *Error {
	return &Error{Status: http.StatusServiceUnavailable, Code: "not_ready",
		Message: "no corpus resident yet; retry shortly", RetryAfter: 1}
}

func errOverloaded() *Error {
	return &Error{Status: http.StatusServiceUnavailable, Code: "overloaded",
		Message: "all compute slots busy; retry shortly", RetryAfter: 1}
}

// ErrMismatch is the structurally-inconsistent-shard-set failure: the
// backends disagree about universe, row order or columns, which no
// retry fixes — the deployment is misconfigured.
func ErrMismatch(msg string) *Error {
	return &Error{Status: http.StatusBadGateway, Code: "shard_mismatch", Message: msg}
}

// WriteError emits the JSON error envelope.
func WriteError(w http.ResponseWriter, e *Error) {
	body, err := httpapi.Marshal(httpapi.ErrorEnvelope{
		Error: httpapi.ErrorBody{Code: e.Code, Message: e.Message},
	})
	if err != nil {
		http.Error(w, e.Message, e.Status)
		return
	}
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	w.Write(body)
}

// writeBody emits a cached or freshly computed 200 body.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// WriteDoc marshals and writes a document immediately, without the
// limiter, singleflight or cache — for the cheap always-available
// endpoints each tier answers itself (/healthz, /readyz, /corpus,
// /admin/reload).
func WriteDoc(w http.ResponseWriter, doc any) {
	body, err := httpapi.Marshal(doc)
	if err != nil {
		WriteError(w, &Error{Status: http.StatusInternalServerError,
			Code: "encode_failed", Message: err.Error()})
		return
	}
	writeBody(w, body)
}

// cacheEntries bounds the response cache. Entries never go stale —
// each generation's bodies are immutable and the generation prefix
// keeps them apart — so the cap only bounds memory under
// parameter-sweep traffic.
const cacheEntries = 1024

// streamAbove is the element count above which a most-shared listing
// or query result streams instead of entering the cache, so multi-MB
// bodies are never parked there. A var so the streaming tests can lower
// it without a giant fixture.
var streamAbove = 4096

// Responder is the coalescing path every computed endpoint of both
// tiers answers through:
//
//   - completed bodies land in a bounded cache keyed by the generation
//     they were computed on (a server's epoch, a gateway's numbered
//     shard epoch vector); the first request on a newer generation
//     drops every older body, and a leader that finishes after such a
//     swap does not store its body;
//   - identical requests coalesce through a singleflight group, so N
//     concurrent cold requests compute once and receive the same bytes;
//   - at most MaxInFlight builds run at once, and a request that cannot
//     get a slot within the queue wait is shed with 503 overloaded and
//     a Retry-After header instead of queueing unboundedly;
//   - a panicking build answers 500 internal_panic to the leader and
//     every waiter, and leaves its key usable;
//   - documents over streamAbove elements stream to each caller instead
//     of being cached.
type Responder struct {
	limiter chan struct{}
	wait    time.Duration

	mu    sync.Mutex
	calls map[string]*call
	cache map[string][]byte
	gen   uint64

	computes atomic.Int64
}

// call is one in-flight singleflight computation: an error, a cacheable
// body, or the encoder of a document too large to cache.
type call struct {
	done   chan struct{}
	body   []byte
	stream func(io.Writer) error
	err    *Error
}

// NewResponder builds a responder running at most maxInFlight builds
// at once, each request waiting at most maxQueueWait for a slot.
func NewResponder(maxInFlight int, maxQueueWait time.Duration) *Responder {
	return &Responder{
		limiter: make(chan struct{}, maxInFlight),
		wait:    maxQueueWait,
		calls:   make(map[string]*call),
		cache:   make(map[string][]byte),
	}
}

// Computes reports how many builds the responder has run (cache misses
// that led a computation). The coalescing tests assert N concurrent
// identical cold requests add exactly one.
func (r *Responder) Computes() int64 { return r.computes.Load() }

// Respond answers one computed request. gen is the generation the
// request resolved — generations only grow — and key must canonically
// encode every parameter build depends on.
func (r *Responder) Respond(w http.ResponseWriter, gen uint64, key string, build func() (any, *Error)) {
	key = strconv.FormatUint(gen, 10) + "|" + key

	r.mu.Lock()
	if gen > r.gen {
		r.gen = gen
		r.cache = make(map[string][]byte)
	}
	if body, ok := r.cache[key]; ok {
		r.mu.Unlock()
		writeBody(w, body)
		return
	}
	if c, ok := r.calls[key]; ok {
		r.mu.Unlock()
		<-c.done
		c.write(w)
		return
	}
	c := &call{done: make(chan struct{})}
	r.calls[key] = c
	r.mu.Unlock()

	func() {
		// The leader must always unregister the call and wake the
		// waiters, even when a build panics — a wedged key would block
		// every later request for this endpoint forever.
		defer func() {
			if p := recover(); p != nil {
				c.err = &Error{Status: http.StatusInternalServerError,
					Code: "internal_panic", Message: fmt.Sprint(p)}
			}
			r.mu.Lock()
			delete(r.calls, key)
			if c.body != nil && gen == r.gen {
				r.storeLocked(key, c.body)
			}
			r.mu.Unlock()
			close(c.done)
		}()
		r.compute(c, build)
	}()
	c.write(w)
}

// compute runs one build under the in-flight limiter and encodes its
// document into c. The slot is held for the build and the encode only:
// streaming to a slow client must not pin a compute slot.
func (r *Responder) compute(c *call, build func() (any, *Error)) {
	if c.err = r.acquire(); c.err != nil {
		return
	}
	defer func() { <-r.limiter }()
	r.computes.Add(1)
	doc, err := build()
	if err != nil {
		c.err = err
		return
	}
	if n, stream := httpapi.Streamer(doc); n > streamAbove {
		c.stream = stream
		return
	}
	body, merr := httpapi.Marshal(doc)
	if merr != nil {
		c.err = &Error{Status: http.StatusInternalServerError, Code: "encode_failed", Message: merr.Error()}
		return
	}
	c.body = body
}

// acquire takes a compute slot, waiting at most the queue wait; a
// request that cannot get one is shed with the overloaded envelope. The
// wait is deliberately not tied to the request context: coalesced
// waiters share the leader's outcome, and a canceled leader must not
// poison them.
func (r *Responder) acquire() *Error {
	select {
	case r.limiter <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(r.wait)
	defer t.Stop()
	select {
	case r.limiter <- struct{}{}:
		return nil
	case <-t.C:
		return errOverloaded()
	}
}

// storeLocked inserts a body into the cache, evicting an arbitrary
// entry at the cap.
func (r *Responder) storeLocked(key string, body []byte) {
	if len(r.cache) >= cacheEntries {
		for k := range r.cache {
			delete(r.cache, k)
			break
		}
	}
	r.cache[key] = body
}

// write serves one settled call: error envelope, cached-size body, or
// the streamed large document.
func (c *call) write(w http.ResponseWriter) {
	switch {
	case c.err != nil:
		WriteError(w, c.err)
	case c.stream != nil:
		w.Header().Set("Content-Type", "application/json")
		c.stream(w)
	default:
		writeBody(w, c.body)
	}
}
