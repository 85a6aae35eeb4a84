package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers. Every span is recorded by the harness around a call into
// one layer; the program itself records nothing.
const (
	layerClient = iota // the load generator: send to last body byte
	layerServer        // middleware around server.Handler()
	layerGather        // middleware around the gateway's Handler()
	layerShard         // middleware around each shard server's Handler()
	layerLeg           // RoundTripper under the gateway's backend client: a data leg
	layerProbe         // the same RoundTripper: a /readyz or /corpus leg
)

var layerNames = [...]string{"client", "server", "gather", "shard", "leg", "probe"}

// span is one timed interval. Times are nanoseconds since the tracer's
// start. req is the benchmark request id the client sent (-1 when the
// span cannot see one, as on gateway legs); shard is the backend index
// of shard and leg spans; path is the URL path handler and leg spans
// served.
type span struct {
	layer      uint8
	shard      int8
	start, end int64
	req        int64
	path       string
}

// tracer collects spans in memory while on, and writes them once when
// the run ends.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a new collection.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// wrap is the handler middleware: it records the span of one ServeHTTP
// call, tagged with the benchmark request id the servers ignore.
func (t *tracer) wrap(layer uint8, shard int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{layer: layer, shard: int8(shard), start: start, end: t.now(), req: requestID(r), path: r.URL.Path})
	})
}

func requestID(r *http.Request) int64 {
	id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// legTransport wraps the gateway's backend transport. It is installed
// in traced and untraced runs alike, so the gateway's connection pool
// is the same in both; it records only while the tracer is on.
type legTransport struct {
	t      *tracer
	next   http.RoundTripper
	shards map[string]int // backend host:port -> shard index
}

func (l *legTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !l.t.on.Load() {
		return l.next.RoundTrip(r)
	}
	s := span{layer: layerLeg, shard: int8(l.shards[r.URL.Host]), start: l.t.now(), req: -1, path: r.URL.Path}
	if p := r.URL.Path; p == "/readyz" || p == "/corpus" {
		s.layer = layerProbe
	}
	resp, err := l.next.RoundTrip(r)
	if err != nil {
		s.end = l.t.now()
		l.t.add(s)
		return nil, err
	}
	resp.Body = &legBody{ReadCloser: resp.Body, t: l.t, s: s}
	return resp, nil
}

// legBody ends a leg's span when the gateway closes the body it read.
type legBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *legBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// writeSpans writes spans as one JSON object per line: layer, start and
// end in nanoseconds since the run's start, request id, shard, URL path,
// and the index of the parent span (-1 for none).
func writeSpans(path string, spans []span, parent []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, `{"i":%d,"layer":%q,"start":%d,"end":%d,"req":%d,"shard":%d,"path":%q,"parent":%d}`+"\n",
			i, layerNames[s.layer], s.start, s.end, s.req, s.shard, s.path, parent[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// linkSpans finds each span's parent. Handler spans link to the client
// span carrying the same request id. Legs carry no request id, so a leg
// links to the gateway handler span whose interval contains it and, for
// a data leg, whose endpoint it fetches (every gateway endpoint
// scatters to the same path, or its /api/partial twin); a shard handler
// span links to the leg of the same shard and path containing it. A
// span with more than one candidate stays unlinked (-1).
func linkSpans(spans []span) []int {
	parent := make([]int, len(spans))
	client := map[int64]int{}
	byLayer := map[uint8][]int{}
	for i, s := range spans {
		parent[i] = -1
		if s.layer == layerClient {
			client[s.req] = i
		}
		byLayer[s.layer] = append(byLayer[s.layer], i)
	}
	for i, s := range spans {
		if s.layer == layerServer || s.layer == layerGather {
			if c, ok := client[s.req]; ok {
				parent[i] = c
			}
		}
	}
	containing := func(child []int, outer []int, match func(c, o span) bool) {
		sort.Slice(outer, func(a, b int) bool { return spans[outer[a]].start < spans[outer[b]].start })
		for _, ci := range child {
			c := spans[ci]
			// Outer spans starting after the child cannot contain it.
			hi := sort.Search(len(outer), func(k int) bool { return spans[outer[k]].start > c.start })
			found := -1
			for k := hi - 1; k >= 0 && k >= hi-64; k-- {
				o := spans[outer[k]]
				if o.end < c.end || !match(c, o) {
					continue
				}
				if found >= 0 {
					found = -2
					break
				}
				found = outer[k]
			}
			if found >= 0 {
				parent[ci] = found
			}
		}
	}
	legs := append(append([]int(nil), byLayer[layerLeg]...), byLayer[layerProbe]...)
	containing(legs, byLayer[layerGather], func(leg, gw span) bool {
		return leg.layer == layerProbe || strings.Replace(leg.path, "/partial", "", 1) == gw.path
	})
	containing(byLayer[layerShard], legs, func(sh, leg span) bool {
		return sh.shard == leg.shard && sh.path == leg.path
	})
	return parent
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, cur int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
