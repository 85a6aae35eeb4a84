package server

import (
	"net/http"
	"net/url"
)

// Vector is one request's resolved shard epoch vector, as the gateway
// routes of the endpoint table use it. internal/gather implements it
// over the shard backends.
type Vector interface {
	// Epochs joins the per-shard epochs: the X-Osdiv-Epoch value.
	Epochs() string
	// Gen numbers the vector for the response cache. It grows every time
	// the resolved vector changes — a shard restart that resets its epoch
	// counter included — so the cache flushes on any change.
	Gen() uint64
	// Bounds are the merged corpus's bounds.
	Bounds() (Bounds, *Error)
	// Scatter sends one request to every backend — a GET of path?query,
	// or a POST of body when body is non-nil — and returns the legs in
	// backend order, each checked against the vector.
	Scatter(path string, query url.Values, body any) ([]Leg, *Error)
}

// Leg is one backend's 200 answer to a scatter.
type Leg struct {
	Backend string
	Path    string
	Body    []byte
}

func errUnsupported(msg string) *Error {
	return &Error{Status: http.StatusNotImplemented, Code: "unsupported_on_gateway", Message: msg}
}

// GatewayHandler serves the endpoint table over a sharded backend set.
// Every mergeable endpoint resolves its vector, canonicalizes against
// the merged corpus, and answers through rsp, scattering and merging on
// a miss; an endpoint without a merge answers 501. own holds the
// gateway's handlers for the tier-specific paths.
func GatewayHandler(resolve func() (Vector, *Error), rsp *Responder, own map[string]http.HandlerFunc) http.Handler {
	return newMux(own, func(e *endpoint) http.HandlerFunc {
		if e.merge == nil {
			return func(w http.ResponseWriter, r *http.Request) { WriteError(w, errUnsupported(e.refuse)) }
		}
		return func(w http.ResponseWriter, r *http.Request) {
			vec, err := resolve()
			if err != nil {
				WriteError(w, err)
				return
			}
			w.Header().Set("X-Osdiv-Epoch", vec.Epochs())
			p, err := e.canonicalize(&canonReq{w: w, r: r, vec: vec})
			if err != nil {
				WriteError(w, err)
				return
			}
			rsp.Respond(w, vec.Gen(), cacheKey(e.path, p.vals), func() (any, *Error) {
				path, query, body := e.path, p.vals, any(nil)
				if e.method == http.MethodPost {
					body = p.query
				}
				if e.partial != nil {
					path, query = e.partialPath(), url.Values{}
					for _, k := range e.partial.keys {
						query[k] = p.vals[k]
					}
				}
				legs, err := vec.Scatter(path, query, body)
				if err != nil {
					return nil, err
				}
				return e.merge(legs, p)
			})
		}
	}, nil)
}

// newMux registers every declared endpoint behind its method guard:
// the tier's own handler for the paths it answers itself, route(e) for
// the rest, partial(e) at the partial path of each endpoint declaring
// one (when the tier serves partials), and the not_found envelope for
// anything undeclared.
func newMux(own map[string]http.HandlerFunc, route, partial func(*endpoint) http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	for i := range endpoints {
		e := &endpoints[i]
		h := own[e.path]
		if h == nil {
			h = route(e)
		}
		mux.HandleFunc(e.path, guard(e.method, h))
		if e.partial != nil && partial != nil {
			mux.HandleFunc(e.partialPath(), guard(http.MethodGet, partial(e)))
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, &Error{Status: http.StatusNotFound, Code: "not_found",
			Message: "unknown endpoint " + r.URL.Path})
	})
	return mux
}

// guard answers 405 with an Allow header for any other method.
func guard(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			WriteError(w, &Error{Status: http.StatusMethodNotAllowed,
				Code: "method_not_allowed", Message: r.Method + " not allowed; use " + method})
			return
		}
		h(w, r)
	}
}
