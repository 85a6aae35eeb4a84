package main

import (
	"bytes"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadConns is the connection count of every workload: one client
// process with at most two connections, matching the two cores.
const loadConns = 2

// reqHeader carries the benchmark's request id. The servers ignore it;
// the handler middleware reads it to link its span to the client's.
const reqHeader = "X-Bench-Req"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// outcome is what the client saw of one request.
type outcome struct {
	key    int32
	ok     bool   // 2xx with a fully read body that passed the byte check
	status int    // HTTP status, 0 on a transport error
	crc    uint32 // CRC-32C of the body
	bytes  int
	epoch  string // X-Osdiv-Epoch
	due    int64  // ns since the phase start: when the request was due (open loop) or sent (closed loop)
	done   int64
	lag    int64 // open loop: how late a free connection woke for the due time
	reqID  int64
}

// latency is the request's latency, timed from its due time.
func (o *outcome) latency() int64 { return o.done - o.due }

// client sends requests over at most loadConns connections.
type client struct {
	base string
	keys []request
	http *http.Client
	t0   time.Time
	tr   *tracer // nil in an untraced phase
}

func newClient(base string, keys []request) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     loadConns,
		MaxIdleConnsPerHost: loadConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, keys: keys, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) since() int64 { return int64(time.Since(c.t0)) }

// do sends one request and fills o; buf is the connection's body buffer.
func (c *client) do(o *outcome, buf *bytes.Buffer) {
	r := c.keys[o.key]
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.target, body)
	if err != nil {
		o.done = c.since()
		return
	}
	req.Header.Set(reqHeader, strconv.FormatInt(o.reqID, 10))
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var spanStart int64
	if c.tr != nil {
		spanStart = c.tr.now()
	}
	resp, err := c.http.Do(req)
	if err != nil {
		o.done = c.since()
		return
	}
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.done = c.since()
	o.status = resp.StatusCode
	o.epoch = resp.Header.Get("X-Osdiv-Epoch")
	o.bytes = buf.Len()
	o.crc = crc32.Checksum(buf.Bytes(), castagnoli)
	o.ok = rerr == nil && resp.StatusCode/100 == 2
	if c.tr != nil {
		c.tr.add(span{layer: layerClient, start: spanStart, end: c.tr.now(), req: o.reqID})
	}
}

// closedLoop drives each connection through its key sequence, sending
// the next request when the previous answer is read, until d elapses.
func (c *client) closedLoop(seqs [][]int32, d time.Duration) [][]outcome {
	out := make([][]outcome, len(seqs))
	var wg sync.WaitGroup
	c.t0 = time.Now()
	deadline := c.t0.Add(d)
	for ci := range seqs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			seq := seqs[ci]
			var buf bytes.Buffer
			res := make([]outcome, 0, 1<<16)
			for i := 0; time.Now().Before(deadline); i++ {
				o := outcome{key: seq[i%len(seq)], reqID: int64(ci)<<40 | int64(i)}
				o.due = c.since()
				c.do(&o, &buf)
				res = append(res, o)
			}
			out[ci] = res
		}(ci)
	}
	wg.Wait()
	return out
}

// openLoop sends sched[i] when it falls due at i/rate seconds after the
// start, whatever the state of earlier requests. Each connection takes
// the next slot as soon as it is free: a slot that falls due while both
// are busy waits for one, and that wait counts in its latency, which is
// timed from the due time. A connection that is free sleeps until the
// due time; how late it wakes is the generator's lag.
func (c *client) openLoop(sched []int32, rate float64) []outcome {
	out := make([]outcome, len(sched))
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	c.t0 = time.Now()
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				o := &out[i]
				*o = outcome{key: sched[i], due: int64(float64(i) * interval), reqID: int64(i)}
				if wait := o.due - c.since(); wait > 0 {
					sleep(time.Duration(wait))
					o.lag = max(c.since()-o.due, 0)
				}
				c.do(o, &buf)
			}
		}()
	}
	wg.Wait()
	return out
}

// sleep blocks for d in the kernel. time.Sleep parks on the runtime's
// network poller, whose Linux timeout counts whole milliseconds, so a
// 1.1 ms sleep takes about 2 ms: too coarse for a schedule with slots a
// millisecond apart.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early wake (EINTR) only sends a little early
}
