package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"osdiversity"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/relstore"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// workload is one traffic mix and the system it runs against.
type workload struct {
	name    string
	shards  int     // 0: one resident server; n: a gateway over n shard servers
	sql     bool    // the server holds an in-memory vulndb, as osdiv -db serves
	rate    float64 // open-loop requests per second; 0 drives a closed loop
	reloads bool    // hot reloads run beside the reads
	// mix draws one request; nil selects the hot-tables keys.
	mix func(r *rand.Rand, u universe) request
}

// The gateway's open-loop rate is a quarter of the closed-loop capacity
// its mix reached at the seed commit, measured with the rate set to 0
// (RATIONALE.md says why not more); it stays fixed so every commit is
// offered the same load.
var workloads = map[string]workload{
	"hot-tables":      {name: "hot-tables"},
	"cold-mix-reload": {name: "cold-mix-reload", sql: true, reloads: true, mix: coldMix},
	"gateway-4shard":  {name: "gateway-4shard", shards: 4, rate: 350, mix: gatewayMix},
}

const (
	// setupRuns is how many times a run builds its system; setup_s is
	// the median. The last build serves the timed phase; in a traced run
	// the one before serves the untraced baseline phase.
	setupRuns = 3
	// phaseReloads is how many reloads a reloading phase runs, evenly
	// spaced, and how many reload rounds every run times after its
	// phase; reload_s is the rounds' median.
	phaseReloads = 16
	// postSwapWindow is how long after a swap a request counts toward
	// epoch.post_swap_lat_p99_ms.
	postSwapWindow = 500 * time.Millisecond
	// replayCap bounds the traced run's single-threaded replay.
	replayCap = 2000
	// warmSeconds is how long the workload's own load runs before the
	// timed phase, after every warm-up key was sent once: lazily built
	// per-parameter state (study memos, shard partials, connection
	// pools, the collector's pacing) settles before timing starts.
	warmSeconds = 4 * time.Second
)

// config is one benchmark run.
type config struct {
	wl       workload
	seed     uint64
	seconds  int
	trace    bool
	entries  int    // corpus size
	dir      string // scratch directory for the delta feeds, removed after the run
	spanFile string // where a traced run writes its spans
	corrupt  func(key int32, body []byte) []byte
}

// open reports whether the run drives an open loop.
func (c config) open() bool { return c.wl.rate > 0 }

// swap is one reload during a phase: its swap time since the phase start.
type swap struct{ at time.Duration }

// phase is one timed load phase and the counters read around it.
type phase struct {
	outs      []outcome
	elapsed   time.Duration  // phase start to the last completion
	states    map[string]int // X-Osdiv-Epoch -> reference state
	swaps     []swap
	builds    []time.Duration
	validates []time.Duration
	computes  int64 // server (or shard) bodies computed during the phase
	gwCompute int64 // gateway bodies computed during the phase
	plans     relstore.PlanCacheStats
	spans     []span
}

// report is everything a run measured.
type report struct {
	cfg          config
	spec         osdiversity.SyntheticSpec
	plan         plan
	deltaEntries int
	valid        int
	setups       []setupTimes
	live         *phase
	baseline     *phase // traced runs: the untraced phase of the same schedule
	reloads      []time.Duration
	heapLive     uint64
	failures     uint64
	check        checkStats
	stats        phaseStats // of the live phase
	replay       *replayStats
	memoRefill   time.Duration
	metrics      []metric
	notes        []string
}

func execute(cfg config) (*report, error) {
	wl := cfg.wl
	rep := &report{cfg: cfg, spec: osdiversity.SyntheticSpec{
		Entries: cfg.entries, Distros: corpusDistros, Seed: cfg.seed, FromYear: corpusFrom, ToYear: corpusTo,
	}}
	base, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
		Entries: cfg.entries, Distros: corpusDistros, Seed: cfg.seed,
		FromYear: corpusFrom, ToYear: corpusTo, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	feeds, err := deltaFeeds(cfg.dir, rep.spec, base.Entries)
	if err != nil {
		return nil, err
	}
	rep.deltaEntries = len(entriesOfYear(base.Entries, deltaYear))
	var entries []*cve.Entry
	if wl.sql {
		entries = base.Entries
	}
	base = nil
	u := newUniverse(corpusDistros, corpusFrom, corpusTo)
	slots, warmSlots := int(wl.rate*float64(cfg.seconds)), int(wl.rate*warmSeconds.Seconds())
	if !cfg.open() {
		slots, warmSlots = loadConns*closedSeqLen, closedSeqLen
	}
	rep.plan = makePlan(wl, cfg.seed, u, slots, warmSlots, !cfg.open())

	tr := newTracer()
	var sys *system
	for i := 0; i < setupRuns; i++ {
		s, st, err := startSystem(wl, rep.spec, entries, tr, cfg.trace)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.setups = append(rep.setups, st)
		switch {
		case i == setupRuns-1:
			sys = s
		case cfg.trace && i == setupRuns-2:
			rep.baseline, err = runPhase(cfg, rep.plan, s, tr, false, feeds)
			rep.failures += s.reloadFailures()
			s.close()
			if err != nil {
				return nil, err
			}
		default:
			s.close()
		}
	}
	entries = nil
	defer sys.close()

	if rep.live, err = runPhase(cfg, rep.plan, sys, tr, cfg.trace, feeds); err != nil {
		return nil, err
	}
	refs := &references{spec: rep.spec, feeds: feeds, db: sys.db, corrupt: cfg.corrupt}
	if cfg.trace {
		if err := rep.traceLayers(sys, refs, feeds); err != nil {
			return nil, err
		}
	}
	rep.check = checkStats{checked: map[string]int{}, seen: map[string]int{}}
	for _, ph := range []*phase{rep.baseline, rep.live} {
		if ph == nil {
			continue
		}
		if err := refs.check(ph, rep.plan.keys, cfg.seed, &rep.check); err != nil {
			return nil, err
		}
	}
	a, err := refs.analysis(0)
	if err != nil {
		return nil, err
	}
	rep.valid = a.ValidCount()
	rep.stats = rep.live.summarize(cfg.open(), cfg.wl.reloads)
	if cfg.trace {
		rep.failures += sys.reloadFailures()
		rep.metrics, rep.notes = rep.perLayer()
		return rep, nil
	}

	// Drop the harness's own per-request records and references, so the
	// live heap is the resident servers'.
	rep.live, refs, a = nil, nil, nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.heapLive = mem.HeapAlloc
	// After the phase (heap and byte check are done), time reload
	// rounds on the idle system: every server of the tier reloads in
	// turn. The gateway's shards outside the delta year append its
	// entries instead of replacing them, which no later measurement
	// reads; a round is the whole tier's reload work, long enough to time
	// steadily. Reloads under load show in cold-mix-reload's latencies.
	for i := 0; i < phaseReloads; i++ {
		runtime.GC() // time each round from a collected heap, as set-up is
		var round time.Duration
		for _, m := range sys.mgrs {
			_, d, err := sys.reload(m, feeds[i%2])
			if err != nil {
				return nil, fmt.Errorf("reload after the phase: %w", err)
			}
			round += d
		}
		rep.reloads = append(rep.reloads, round)
	}
	rep.failures += sys.reloadFailures()
	rep.metrics = rep.endToEnd()
	return rep, nil
}

// runPhase warms the system's caches, then drives the plan for the
// configured time, hot-reloading beside it when the workload reloads.
func runPhase(cfg config, pl plan, sys *system, tr *tracer, traced bool, feeds [2]string) (*phase, error) {
	c := newClient(sys.base, pl.keys)
	defer c.close()
	for _, k := range pl.warm {
		o := outcome{key: k, reqID: -1}
		c.do(&o, new(bytes.Buffer))
		if !o.ok {
			return nil, fmt.Errorf("warm-up %s %s: status %d", pl.keys[k].method, pl.keys[k].target, o.status)
		}
	}
	if cfg.open() {
		c.openLoop(pl.warmSched, cfg.wl.rate)
	} else {
		c.closedLoop(pl.warmConns, warmSeconds)
	}
	ph := &phase{states: map[string]int{initialEpoch(sys): 0}}
	computes, gwComputes := sys.computes(), int64(0)
	if sys.gw != nil {
		gwComputes = sys.gw.Computes()
	}
	var plans0 relstore.PlanCacheStats
	if sys.db != nil {
		plans0 = sys.db.Store().PlanCacheStats()
	}
	sys.log.take()
	runtime.GC() // collect what set-up and warm-up left, outside the timed phase
	if traced {
		tr.take()
		tr.on.Store(true)
		c.tr = tr
	}

	d := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	var wg sync.WaitGroup
	var reloadErr error
	if cfg.wl.reloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reload in the middle of each sixteenth of the phase, so
			// the latency windows of a reloading phase hold equal shares.
			for k := 1; k <= phaseReloads; k++ {
				time.Sleep(time.Until(start.Add((time.Duration(k)*d - d/2) / phaseReloads)))
				feed := (k - 1) % 2
				ep, _, err := sys.reload(sys.deltaMgr, feeds[feed])
				if err != nil {
					reloadErr = fmt.Errorf("reload %d: %w", k, err)
					return
				}
				ph.swaps = append(ph.swaps, swap{at: ep.SwappedAt.Sub(start)})
				ph.states[strconv.FormatUint(ep.Seq, 10)] = 1 + feed
			}
		}()
	}
	if !cfg.open() {
		for _, outs := range c.closedLoop(pl.conns, d) {
			ph.outs = append(ph.outs, outs...)
		}
		// Interleave the connections' records by send time, the order
		// the latency windows cut.
		sort.SliceStable(ph.outs, func(i, j int) bool { return ph.outs[i].due < ph.outs[j].due })
	} else {
		ph.outs = c.openLoop(pl.sched, cfg.wl.rate)
	}
	// The client's clock starts a moment after start; swaps are
	// re-based onto it so post-swap windows line up with due times.
	offset := c.t0.Sub(start)
	wg.Wait()
	if reloadErr != nil {
		return nil, reloadErr
	}
	for i := range ph.swaps {
		ph.swaps[i].at -= offset
	}
	for _, o := range ph.outs {
		ph.elapsed = max(ph.elapsed, time.Duration(o.done))
	}
	if traced {
		tr.on.Store(false)
		ph.spans = tr.take()
	}
	ph.builds, ph.validates = sys.log.take()
	ph.computes = sys.computes() - computes
	if sys.gw != nil {
		ph.gwCompute = sys.gw.Computes() - gwComputes
	}
	if sys.db != nil {
		p := sys.db.Store().PlanCacheStats()
		ph.plans = relstore.PlanCacheStats{Hits: p.Hits - plans0.Hits, Misses: p.Misses - plans0.Misses}
	}
	return ph, nil
}

// initialEpoch is the X-Osdiv-Epoch a freshly built system answers
// with: the boot epoch, or the gateway's vector of shard boot epochs.
func initialEpoch(sys *system) string {
	seqs := make([]string, len(sys.mgrs))
	for i, m := range sys.mgrs {
		seqs[i] = strconv.FormatUint(m.Status().Seq, 10)
	}
	return strings.Join(seqs, ",")
}

// replayStats are the single-threaded replay's timings per layer.
type replayStats struct {
	build, marshal, query, search, simulate []time.Duration
	rows, evaluated                         []int
}

// traceLayers runs the traced run's work after its phase: the replay
// against the exported layer functions, the memo refill pass, and the
// span file.
func (rep *report) traceLayers(sys *system, refs *references, feeds [2]string) error {
	var a *osdiversity.Analysis
	if sys.gw != nil {
		// Shards hold slices; replay over the unsharded corpus, whose
		// documents are the merged ones the gateway answers.
		var err error
		if a, err = refs.analysis(0); err != nil {
			return err
		}
	} else {
		ep, _ := sys.mgrs[0].Current()
		a = ep.Analysis
	}
	rs, err := replay(rep.plan, a, sys.db)
	if err != nil {
		return err
	}
	rep.replay = rs
	if rep.cfg.wl.reloads {
		// A freshly swapped epoch holds an empty memo: time one pass over
		// every table endpoint on one, built off to the side.
		fresh, err := a.ApplyDelta([]string{feeds[0]})
		if err != nil {
			return err
		}
		t := time.Now()
		for _, r := range everyTable(newUniverse(corpusDistros, corpusFrom, corpusTo)) {
			doc, err := r.build(fresh, nil)
			if err != nil {
				return err
			}
			if _, err := httpapi.Marshal(doc); err != nil {
				return err
			}
		}
		rep.memoRefill = time.Since(t)
	}
	return writeSpans(rep.cfg.spanFile, rep.live.spans, linkSpans(rep.live.spans))
}

// replay sends the phase's request sequence, up to replayCap requests,
// through the exported functions the handlers call, on one thread:
// server.Build* (core), Store().Query and BuildQueryResult (relstore),
// BuildRecommend (scenario), BuildAttack (attack), then httpapi.Marshal.
func replay(pl plan, a *osdiversity.Analysis, db *vulndb.DB) (*replayStats, error) {
	seq := pl.sched
	if pl.sched == nil {
		for i := 0; i < replayCap/2; i++ {
			seq = append(seq, pl.conns[0][i], pl.conns[1][i])
		}
	}
	seq = seq[:min(len(seq), replayCap)]
	rs := &replayStats{}
	for _, k := range seq {
		r := pl.keys[k]
		t := time.Now()
		var doc any
		var err error
		if r.class == classSQL {
			var res *relstore.Result
			res, err = db.Store().Query(r.sql)
			if err != nil {
				return nil, err
			}
			rs.query = append(rs.query, time.Since(t))
			rs.rows = append(rs.rows, len(res.Rows))
			t = time.Now()
			doc = server.BuildQueryResult(res)
		} else {
			doc, err = r.build(a, db)
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", r.target, err)
			}
			switch r.class {
			case classTables:
				rs.build = append(rs.build, time.Since(t))
			case classAttack:
				rs.simulate = append(rs.simulate, time.Since(t))
			case classRecommend:
				rs.search = append(rs.search, time.Since(t))
				rs.evaluated = append(rs.evaluated, doc.(httpapi.Recommend).Evaluated)
			}
			t = time.Now()
		}
		if _, err := httpapi.Marshal(doc); err != nil {
			return nil, err
		}
		rs.marshal = append(rs.marshal, time.Since(t))
	}
	return rs, nil
}
