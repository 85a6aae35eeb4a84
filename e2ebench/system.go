package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"osdiversity"
	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/epoch"
	"osdiversity/internal/gather"
	"osdiversity/internal/osmap"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// The wiring below copies cmd/osdiv: runServe's epoch manager, resident
// server, injected database and http.Server timeouts, and runGateway's
// gather.New with the flag defaults (which equal gather.Config's zero
// value defaults). A change to that wiring must be copied here.

// system is one serving system under test, on loopback listeners.
type system struct {
	base     string // the URL the load targets: the server or the gateway
	servers  []*server.Server
	mgrs     []*epoch.Manager
	gw       *gather.Gateway
	db       *vulndb.DB
	deltaMgr *epoch.Manager // the manager whose corpus holds deltaYear
	log      *reloadLog

	https []*http.Server
	wg    sync.WaitGroup
}

// setupTimes splits one system build.
type setupTimes struct {
	total  time.Duration // build start to the first /readyz 200 from the load's target
	corpus time.Duration // LoadSynthetic, summed over servers or shards
	db     time.Duration // vulndb import
	ready  time.Duration // last corpus resident (or gateway listening) to /readyz 200
}

// workers is the server worker count: GOMAXPROCS, as -workers 0 selects.
var workers = runtime.GOMAXPROCS(0)

// startSystem builds the workload's system. entries is the base corpus
// the sql workload imports into its database. traced installs the
// handler middleware; the gateway's leg transport is installed always.
func startSystem(wl workload, spec osdiversity.SyntheticSpec, entries []*cve.Entry, tr *tracer, traced bool) (*system, setupTimes, error) {
	runtime.GC() // start every build from a collected heap
	sys := &system{log: &reloadLog{}}
	var st setupTimes
	start := time.Now()
	n := max(wl.shards, 1)
	urls := make([]string, 0, n)
	var resident time.Time
	for i := 0; i < n; i++ {
		mgr := epoch.NewManager(epoch.Config{Validate: sys.log.validate})
		cfg := server.Config{Source: fmt.Sprintf("synthetic:%d", spec.Entries), Engine: "bitset", Workers: workers}
		opts := []osdiversity.Option{osdiversity.WithParallelism(workers)}
		layer := uint8(layerServer)
		if wl.shards > 0 {
			cfg.Shard = fmt.Sprintf("%d/%d", i+1, n)
			opts = append(opts, osdiversity.WithYearShard(i+1, n))
			layer = layerShard
		}
		srv := server.NewResident(mgr, cfg)
		var h http.Handler = srv.Handler()
		if traced {
			h = tr.wrap(layer, i, h)
		}
		url, err := sys.listen(h)
		if err != nil {
			sys.close()
			return nil, st, err
		}
		t := time.Now()
		a, err := osdiversity.LoadSynthetic(spec, opts...)
		st.corpus += time.Since(t)
		if err != nil {
			sys.close()
			return nil, st, err
		}
		if wl.sql {
			t = time.Now()
			db, err := vulndb.CreateForRegistry(osmap.NewSyntheticRegistry(spec.Distros))
			if err == nil {
				_, _, err = db.LoadEntries(entries, classify.NewClassifier())
			}
			st.db += time.Since(t)
			if err != nil {
				sys.close()
				return nil, st, fmt.Errorf("database import: %w", err)
			}
			srv.SetDatabase(db) // before Install: readiness gates on the epoch
			sys.db = db
		}
		mgr.Install(a, cfg.Source)
		resident = time.Now()
		if lo, hi := a.YearRange(); lo <= deltaYear && deltaYear <= hi {
			sys.deltaMgr = mgr
		}
		sys.servers = append(sys.servers, srv)
		sys.mgrs = append(sys.mgrs, mgr)
		urls = append(urls, url)
	}
	sys.base = urls[0]
	if wl.shards > 0 {
		shards := map[string]int{}
		for i, u := range urls {
			shards[u[len("http://"):]] = i
		}
		gw, err := gather.New(gather.Config{
			Backends: urls,
			HTTP:     &http.Client{Transport: &legTransport{t: tr, next: http.DefaultTransport, shards: shards}},
		})
		if err != nil {
			sys.close()
			return nil, st, err
		}
		var h http.Handler = gw.Handler()
		if traced {
			h = tr.wrap(layerGather, -1, h)
		}
		resident = time.Now()
		if sys.base, err = sys.listen(h); err != nil {
			sys.close()
			return nil, st, err
		}
		sys.gw = gw
	}
	if err := waitReady(sys.base); err != nil {
		sys.close()
		return nil, st, err
	}
	st.ready = time.Since(resident)
	st.total = time.Since(start)
	return sys, st, nil
}

// listen serves h on a fresh loopback port with serve.go's timeouts.
func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s.https = append(s.https, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener and waits for the serve loops to return.
func (s *system) close() {
	for _, hs := range s.https {
		hs.Close()
	}
	s.wg.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// waitReady polls /readyz until it answers 200.
func waitReady(base string) error {
	c := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("system not ready within 60s")
}

// reload runs one hot reload through the manager the way runServe's
// reload trigger does, with feed as the whole delta directory. It
// returns the TryReload wall time: build, validate and swap.
func (s *system) reload(mgr *epoch.Manager, feed string) (*epoch.Epoch, time.Duration, error) {
	t := time.Now()
	ep, err := mgr.TryReload("delta:"+feed, func(cur *osdiversity.Analysis) (*osdiversity.Analysis, error) {
		b := time.Now()
		a, err := cur.ApplyDelta([]string{feed})
		s.log.add(&s.log.builds, time.Since(b))
		return a, err
	})
	return ep, time.Since(t), err
}

// reloadLog times the two reload steps the harness supplies to the
// epoch manager: the BuildFunc around ApplyDelta and the Validate
// around epoch.DefaultValidate.
type reloadLog struct {
	mu        sync.Mutex
	builds    []time.Duration
	validates []time.Duration
}

func (l *reloadLog) add(to *[]time.Duration, d time.Duration) {
	l.mu.Lock()
	*to = append(*to, d)
	l.mu.Unlock()
}

func (l *reloadLog) validate(a *osdiversity.Analysis) error {
	t := time.Now()
	err := epoch.DefaultValidate(a)
	l.add(&l.validates, time.Since(t))
	return err
}

// take returns the logged durations and clears the log.
func (l *reloadLog) take() (builds, validates []time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	builds, validates = l.builds, l.validates
	l.builds, l.validates = nil, nil
	return builds, validates
}

// computes sums the servers' computed-body counters.
func (s *system) computes() int64 {
	var n int64
	for _, srv := range s.servers {
		n += srv.Computes()
	}
	return n
}

// reloadFailures sums the managers' failed reloads.
func (s *system) reloadFailures() uint64 {
	var n uint64
	for _, m := range s.mgrs {
		n += m.Status().Failures
	}
	return n
}
