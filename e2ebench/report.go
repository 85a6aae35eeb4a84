package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind a percentile or mean; 0 when not one
	note  string // how the samples combine, when not plainly
}

// percentile returns the nearest-rank p-quantile of v (sorted in place);
// 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	return v[max(i, 0)]
}

func ms(d int64) float64 { return float64(d) / 1e6 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(int64(d))
	}
	return out
}

func mean(v []int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

// latencies returns every request's latency in milliseconds; a failed
// request counts as infinitely slow.
func (ph *phase) latencies() []float64 {
	out := make([]float64, len(ph.outs))
	for i, o := range ph.outs {
		out[i] = math.Inf(1)
		if o.ok {
			out[i] = ms(o.latency())
		}
	}
	return out
}

func (ph *phase) successes() int {
	n := 0
	for _, o := range ph.outs {
		if o.ok {
			n++
		}
	}
	return n
}

func (ph *phase) throughput() float64 {
	return float64(ph.successes()) / ph.elapsed.Seconds()
}

func (ph *phase) genLag() []float64 {
	out := make([]float64, len(ph.outs))
	for i, o := range ph.outs {
		out[i] = ms(o.lag)
	}
	return out
}

func medianSetup(setups []setupTimes, part func(setupTimes) time.Duration) float64 {
	v := make([]float64, len(setups))
	for i, st := range setups {
		v[i] = part(st).Seconds()
	}
	return percentile(v, 0.5)
}

// phaseStats summarizes a phase's requests.
type phaseStats struct {
	attempted, failed int
	// Latency percentiles are medians over windows of consecutive
	// requests (by due time): a stall that hits one window moves the
	// result by one rank, not by its size.
	p50, p99       float64 // ms
	p50Win, p99Win window
	throughput     float64
	completions    float64 // successes per second over the whole phase
	lagP99         float64 // open loop: generator lag, ms
	lagN           int
}

// window is a latency window layout: count windows of size requests
// (the last one takes the remainder).
type window struct{ count, size int }

func (w window) String() string { return fmt.Sprintf("%dx%d", w.count, w.size) }

// Window sizes. A 99th-percentile window holds at least minP99Window
// requests, so ten samples lie beyond it; a reloading phase has
// reloadWindows of them, each holding the same number of evenly spaced
// swaps at the same offsets. The median is taken over up to maxWindows
// windows of at least minP50Window requests.
const (
	minP99Window  = 1000
	minP50Window  = 100
	maxWindows    = 25
	reloadWindows = phaseReloads / 2
)

func layout(n, min int) window {
	size := max(min, n/maxWindows)
	return window{count: max(n/size, 1), size: size}
}

// windowed returns the median over the windows of the p-quantile of each.
func windowed(lat []float64, w window, p float64) float64 {
	var per []float64
	for i := 0; i < w.count; i++ {
		hi := (i + 1) * w.size
		if i == w.count-1 {
			hi = len(lat)
		}
		per = append(per, percentile(append([]float64(nil), lat[i*w.size:hi]...), p))
	}
	return percentile(per, 0.5)
}

// summarize computes the phase's end-to-end figures; ph.outs is in due
// order.
func (ph *phase) summarize(open, reloads bool) phaseStats {
	lat := ph.latencies()
	st := phaseStats{attempted: len(lat), failed: len(lat) - ph.successes()}
	st.p50Win, st.p99Win = layout(len(lat), minP50Window), layout(len(lat), minP99Window)
	if reloads {
		st.p99Win = window{count: reloadWindows, size: max(len(lat)/reloadWindows, 1)}
	}
	st.p50, st.p99 = windowed(lat, st.p50Win, 0.5), windowed(lat, st.p99Win, 0.99)
	st.throughput = ph.throughput()
	st.completions = st.throughput
	if open {
		lag := ph.genLag()
		st.lagP99, st.lagN = percentile(lag, 0.99), len(lag)
		return st
	}
	// A closed loop's throughput is its capacity: the median rate over
	// the median-latency windows, each from its first send to its last
	// answer.
	var rates []float64
	for i := 0; i < st.p50Win.count; i++ {
		hi := (i + 1) * st.p50Win.size
		if i == st.p50Win.count-1 {
			hi = len(ph.outs)
		}
		first, last, ok := int64(math.MaxInt64), int64(0), 0
		for _, o := range ph.outs[i*st.p50Win.size : hi] {
			first, last = min(first, o.due), max(last, o.done)
			if o.ok {
				ok++
			}
		}
		if last > first {
			rates = append(rates, float64(ok)/(float64(last-first)/1e9))
		}
	}
	st.throughput = percentile(rates, 0.5)
	return st
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func (rep *report) endToEnd() []metric {
	st := rep.stats
	reloads := durationsMS(rep.reloads)
	return []metric{
		{"setup_s", medianSetup(rep.setups, func(s setupTimes) time.Duration { return s.total }), "s", len(rep.setups), "median of set-ups"},
		{"throughput_rps", st.throughput, "req/s", st.attempted, ""},
		{"lat_p50_ms", st.p50, "ms", st.attempted, "median of windows " + st.p50Win.String()},
		{"lat_p99_ms", st.p99, "ms", st.attempted, "median of windows " + st.p99Win.String()},
		{"reload_s", percentile(reloads, 0.5) / 1e3, "s", len(reloads), "median of reloads"},
		{"heap_live_mb", float64(rep.heapLive) / (1 << 20), "MiB", 0, ""},
	}
}

// perLayer computes the per-layer metrics of a traced run.
func (rep *report) perLayer() ([]metric, []string) {
	ph, base := rep.live, rep.baseline
	spans := ph.spans
	var notes []string
	durs := map[uint8][]float64{}
	byReq := map[uint8]map[int64]span{layerClient: {}, layerServer: {}, layerGather: {}}
	for _, s := range spans {
		durs[s.layer] = append(durs[s.layer], ms(s.end-s.start))
		if m, ok := byReq[s.layer]; ok && s.req >= 0 {
			m[s.req] = s
		}
	}
	attempted := float64(len(ph.outs))
	ratio := func(computes int64, requests float64) float64 {
		if requests == 0 {
			return 0
		}
		return 1 - float64(computes)/requests
	}

	// Client span minus the edge handler's span, per request.
	var transport []float64
	edge := byReq[layerServer]
	if rep.cfg.wl.shards > 0 {
		edge = byReq[layerGather]
	}
	for id, c := range byReq[layerClient] {
		if h, ok := edge[id]; ok {
			transport = append(transport, ms((c.end-c.start)-(h.end-h.start)))
		}
	}
	var bytes, shares = 0, map[string]float64{}
	for _, o := range ph.outs {
		bytes += o.bytes
	}
	keyOf := make(map[int64]int32, len(ph.outs))
	for _, o := range ph.outs {
		keyOf[o.reqID] = o.key
	}
	var handlerTotal float64
	for _, s := range spans {
		if k, ok := keyOf[s.req]; ok && s.layer == layerServer && rep.cfg.wl.mix != nil {
			d := ms(s.end - s.start)
			shares[rep.plan.keys[k].class] += d
			handlerTotal += d
		}
	}
	if handlerTotal > 0 {
		var parts []string
		for _, c := range []string{classTables, classSQL, classAttack, classRecommend} {
			parts = append(parts, fmt.Sprintf("%s=%.3f", c, shares[c]/handlerTotal))
		}
		notes = append(notes, "server handler time share by class: "+strings.Join(parts, " "))
	}

	// Gateway: legs linked to handler spans by containment.
	parent := linkSpans(spans)
	var self, hitHandler []float64
	var legs, probes, unlinked int
	children := map[int][][2]int64{}
	dataLegs := map[int]int{}
	for i, s := range spans {
		if s.layer != layerLeg && s.layer != layerProbe {
			continue
		}
		if s.layer == layerLeg {
			legs++
		} else {
			probes++
		}
		if parent[i] < 0 {
			unlinked++
			continue
		}
		children[parent[i]] = append(children[parent[i]], [2]int64{s.start, s.end})
		if s.layer == layerLeg {
			dataLegs[parent[i]]++
		}
	}
	for i, s := range spans {
		if s.layer != layerGather {
			continue
		}
		d := s.end - s.start
		self = append(self, ms(d-covered(s.start, s.end, children[i])))
		if dataLegs[i] == 0 {
			hitHandler = append(hitHandler, ms(d))
		}
	}
	var gwRequests float64
	if rep.cfg.wl.shards > 0 {
		gwRequests = attempted
	}
	var legsPerReq, unlinkedRatio float64
	if gwRequests > 0 {
		legsPerReq = float64(legs) / gwRequests
	}
	if legs+probes > 0 {
		unlinkedRatio = float64(unlinked) / float64(legs+probes)
	}

	var postSwap []float64
	lat := ph.latencies()
	for i, o := range ph.outs {
		for _, sw := range ph.swaps {
			if at := int64(sw.at); o.due >= at && o.due < at+int64(postSwapWindow) {
				postSwap = append(postSwap, lat[i])
				break
			}
		}
	}

	var planRatio float64
	if n := ph.plans.Hits + ph.plans.Misses; n > 0 {
		planRatio = float64(ph.plans.Hits) / float64(n)
	}
	var overhead float64
	if !rep.cfg.open() {
		if t := base.throughput(); t > 0 {
			overhead = (t - ph.throughput()) / t * 100
		}
	} else if b := percentile(base.latencies(), 0.5); b > 0 {
		overhead = (percentile(ph.latencies(), 0.5) - b) / b * 100
	}
	var genLag []float64
	if rep.cfg.open() {
		genLag = ph.genLag()
	}

	rs := rep.replay
	serverReqs := attempted
	if rep.cfg.wl.shards > 0 {
		serverReqs = 0
	}
	m := []metric{
		{"server.handler_p50_ms", percentile(durs[layerServer], 0.5), "ms", len(durs[layerServer]), ""},
		{"server.handler_p99_ms", percentile(durs[layerServer], 0.99), "ms", len(durs[layerServer]), ""},
		{"server.cache_hit_ratio", ratio(ph.computes, serverReqs), "fraction", int(serverReqs), ""},
		{"http.transport_p50_ms", percentile(transport, 0.5), "ms", len(transport), ""},
		{"httpapi.resp_bytes_mean", float64(bytes) / attempted, "bytes", len(ph.outs), ""},
		{"core.build_p50_ms", percentile(durationsMS(rs.build), 0.5), "ms", len(rs.build), ""},
		{"core.memo_refill_ms", ms(int64(rep.memoRefill)), "ms", 0, ""},
		{"httpapi.marshal_p50_ms", percentile(durationsMS(rs.marshal), 0.5), "ms", len(rs.marshal), ""},
		{"relstore.query_p50_ms", percentile(durationsMS(rs.query), 0.5), "ms", len(rs.query), ""},
		{"relstore.query_p99_ms", percentile(durationsMS(rs.query), 0.99), "ms", len(rs.query), ""},
		{"relstore.plan_hit_ratio", planRatio, "fraction", int(ph.plans.Hits + ph.plans.Misses), ""},
		{"relstore.rows_mean", mean(rs.rows), "count", len(rs.rows), ""},
		{"scenario.search_p50_ms", percentile(durationsMS(rs.search), 0.5), "ms", len(rs.search), ""},
		{"scenario.evaluated_mean", mean(rs.evaluated), "count", len(rs.evaluated), ""},
		{"attack.simulate_p50_ms", percentile(durationsMS(rs.simulate), 0.5), "ms", len(rs.simulate), ""},
		{"epoch.build_p50_ms", percentile(durationsMS(ph.builds), 0.5), "ms", len(ph.builds), ""},
		{"epoch.validate_p50_ms", percentile(durationsMS(ph.validates), 0.5), "ms", len(ph.validates), ""},
		{"epoch.post_swap_lat_p99_ms", percentile(postSwap, 0.99), "ms", len(postSwap), ""},
		{"epoch.reload_failures", float64(rep.failures), "count", 0, ""},
		{"gather.handler_p50_ms", percentile(durs[layerGather], 0.5), "ms", len(durs[layerGather]), ""},
		{"gather.handler_p99_ms", percentile(durs[layerGather], 0.99), "ms", len(durs[layerGather]), ""},
		{"gather.self_p50_ms", percentile(self, 0.5), "ms", len(self), ""},
		{"gather.hit_handler_p50_ms", percentile(hitHandler, 0.5), "ms", len(hitHandler), ""},
		{"gather.leg_p50_ms", percentile(durs[layerLeg], 0.5), "ms", len(durs[layerLeg]), ""},
		{"gather.leg_p99_ms", percentile(durs[layerLeg], 0.99), "ms", len(durs[layerLeg]), ""},
		{"gather.legs_per_req", legsPerReq, "count", int(gwRequests), ""},
		{"gather.probe_legs_per_s", float64(probes) / ph.elapsed.Seconds(), "1/s", 0, ""},
		{"gather.cache_hit_ratio", ratio(ph.gwCompute, gwRequests), "fraction", int(gwRequests), ""},
		{"gather.unlinked_leg_ratio", unlinkedRatio, "fraction", legs + probes, ""},
		{"shard.cache_hit_ratio", ratio(ph.computes, float64(legs)), "fraction", legs, ""},
		{"shard.handler_p50_ms", percentile(durs[layerShard], 0.5), "ms", len(durs[layerShard]), ""},
		{"setup.corpus_s", medianSetup(rep.setups, func(s setupTimes) time.Duration { return s.corpus }), "s", len(rep.setups), ""},
		{"setup.db_s", medianSetup(rep.setups, func(s setupTimes) time.Duration { return s.db }), "s", len(rep.setups), ""},
		{"setup.ready_s", medianSetup(rep.setups, func(s setupTimes) time.Duration { return s.ready }), "s", len(rep.setups), ""},
		{"bench.gen_lag_p99_ms", percentile(genLag, 0.99), "ms", len(genLag), ""},
		{"trace.overhead_pct", overhead, "%", 0, ""},
	}
	for _, u := range unmeasured {
		notes = append(notes, "not measurable from outside: "+u)
	}
	notes = append(notes, "spans written to "+rep.cfg.spanFile)
	return m, notes
}

// unmeasured lists the layer parts the harness cannot time from outside.
var unmeasured = []string{
	"server parameter canonicalization, epoch resolve, cache lookup, singleflight wait and limiter wait: all inside server.respond, which exposes no hook; the handler span holds them together",
	"gateway epoch probe, leg decode, merge and re-encode per request: inside gather's handlers; probe legs are counted, the rest is gather.self_p50_ms",
	"relstore plan lookup versus execution: Store().Query compiles through the plan cache internally; plan reuse is relstore.plan_hit_ratio",
	"encode time of a live request: the server marshals inside respond; httpapi.marshal_p50_ms replays it",
}

// print writes the provenance header, every metric with its unit and
// sample count, and the JSON result as the last line.
func (rep *report) print(w io.Writer) error {
	cfg := rep.cfg
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# e2ebench workload=%s seed=%d seconds=%d trace=%t\n", cfg.wl.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(bw, "# env go=%s goos=%s goarch=%s gomaxprocs=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), cpuModel(), commit)
	fmt.Fprintf(bw, "# corpus entries=%d distros=%d years=%d-%d valid=%d delta_year=%d delta_year_entries=%d\n",
		rep.spec.Entries, rep.spec.Distros, rep.spec.FromYear, rep.spec.ToYear, rep.valid, deltaYear, rep.deltaEntries)
	switch {
	case !cfg.open():
		fmt.Fprintf(bw, "# load closed-loop connections=%d distinct_keys=%d completions_per_s=%.1f\n",
			loadConns, len(rep.plan.keys), rep.stats.completions)
	default:
		fmt.Fprintf(bw, "# load open-loop rate=%g/s connections=%d scheduled=%d distinct_keys=%d\n",
			cfg.wl.rate, loadConns, len(rep.plan.sched), len(rep.plan.keys))
	}
	fmt.Fprintf(bw, "# bench.gen_lag_p99_ms=%.4f samples=%d\n", rep.stats.lagP99, rep.stats.lagN)
	var classes []string
	for _, c := range []string{classTables, classSQL, classAttack, classRecommend} {
		if n := rep.check.seen[c]; n > 0 {
			classes = append(classes, fmt.Sprintf("%s=%d/%d", c, rep.check.checked[c], n))
		}
	}
	fmt.Fprintf(bw, "# byte check (checked/answered distinct key+epoch): %s mismatches=%d\n",
		strings.Join(classes, " "), rep.check.mismatches)
	attempted, failed := rep.counts()
	fmt.Fprintf(bw, "# error_ratio=%g failed=%d attempted=%d reload_failures=%d\n",
		float64(failed)/float64(attempted), failed, attempted, rep.failures)

	for _, n := range rep.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	out := map[string]map[string]any{}
	for _, m := range rep.metrics {
		fmt.Fprintf(bw, "%-28s %14.4f %-8s", m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(bw, " n=%d", m.n)
		}
		if m.note != "" {
			fmt.Fprintf(bw, " %s", m.note)
		}
		fmt.Fprintln(bw)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{rep.correct(), attempted, failed, out})
	if err != nil {
		return err
	}
	bw.Write(append(line, '\n'))
	return bw.Flush()
}

// counts sums attempted and failed requests over the timed phases.
func (rep *report) counts() (attempted, failed int) {
	attempted, failed = rep.stats.attempted, rep.stats.failed
	if rep.baseline != nil {
		b := rep.baseline.summarize(false, false)
		attempted, failed = attempted+b.attempted, failed+b.failed
	}
	return attempted, failed
}

// correct holds when every response was a 2xx that passed the byte
// check and no reload failed.
func (rep *report) correct() bool {
	_, failed := rep.counts()
	return failed == 0 && rep.check.mismatches == 0 && rep.failures == 0
}

// cpuModel is the CPU model line of /proc/cpuinfo, as go test prints it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
