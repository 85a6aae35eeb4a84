package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osdiversity"
	"osdiversity/internal/epoch"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/relstore"
	"osdiversity/internal/vulndb"
)

// reloadFixture is a base corpus plus the delta feeds a reload applies,
// and a database import of the base for the SQL surface.
type reloadFixture struct {
	base   *osdiversity.Analysis
	delta  []string
	dbPath string
}

func makeReloadFixture(t *testing.T) *reloadFixture {
	t.Helper()
	dir := t.TempDir()
	feeds, err := osdiversity.GenerateFeeds(filepath.Join(dir, "feeds"))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	if len(feeds) < 2 {
		t.Fatalf("calibrated corpus spans only %d feed files", len(feeds))
	}
	base, err := osdiversity.LoadFeeds(feeds[:len(feeds)-1], osdiversity.WithParallelism(2))
	if err != nil {
		t.Fatalf("LoadFeeds: %v", err)
	}
	dbPath := filepath.Join(dir, "study.db")
	if _, _, err := osdiversity.ImportFeeds(dbPath, feeds[:len(feeds)-1], osdiversity.WithParallelism(2)); err != nil {
		t.Fatalf("ImportFeeds: %v", err)
	}
	return &reloadFixture{base: base, delta: feeds[len(feeds)-1:], dbPath: dbPath}
}

// get issues one GET and returns status, the X-Osdiv-Epoch header (0 if
// absent) and the body.
func get(t *testing.T, ts *httptest.Server, path string) (int, uint64, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	var seq uint64
	if h := resp.Header.Get("X-Osdiv-Epoch"); h != "" {
		seq, err = strconv.ParseUint(h, 10, 64)
		if err != nil {
			t.Fatalf("GET %s: X-Osdiv-Epoch %q: %v", path, h, err)
		}
	}
	return resp.StatusCode, seq, body
}

// TestReadyzGatesOnFirstEpoch drives the satellite contract: a resident
// server whose boot corpus is still loading answers 503 not_ready on
// /readyz and on every query endpoint, while /healthz stays a pure
// liveness "ok"; the first Install flips /readyz to the Ready document.
func TestReadyzGatesOnFirstEpoch(t *testing.T) {
	m := epoch.NewManager(epoch.Config{})
	s := NewResident(m, Config{Source: "feeds:x", Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, body := get(t, ts, "/healthz")
	if status != 200 || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("/healthz before boot = %d %q, want 200 ok", status, body)
	}
	for _, path := range []string{"/readyz", "/corpus", "/api/table3"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s before boot = %d, want 503", path, resp.StatusCode)
		}
		if !bytes.Contains(body, []byte(`"not_ready"`)) {
			t.Errorf("%s before boot body = %q, want not_ready envelope", path, body)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("%s Retry-After = %q, want 1", path, got)
		}
	}

	a, err := osdiversity.LoadCalibrated()
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	m.Install(a, "feeds:x")

	status, _, body = get(t, ts, "/readyz")
	if status != 200 || string(body) != "{\"status\":\"ok\",\"epoch\":1}\n" {
		t.Fatalf("/readyz after boot = %d %q", status, body)
	}
	status, seq, _ := get(t, ts, "/api/table1")
	if status != 200 || seq != 1 {
		t.Fatalf("table1 after boot = %d epoch %d, want 200 epoch 1", status, seq)
	}
}

// TestAdminReloadSwapsAndDegrades exercises POST /admin/reload end to
// end: a successful swap bumps the epoch, re-keys the response cache
// and shows up on /corpus; every failure shape answers its typed
// envelope while the old epoch keeps serving identical bytes.
func TestAdminReloadSwapsAndDegrades(t *testing.T) {
	fx := makeReloadFixture(t)
	s := New(fx.base, Config{Source: "feeds:x", Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := httpapi.NewClient(ts.URL)
	c.HTTP = ts.Client()

	// No reloader attached yet: 404.
	if _, err := c.Reload(); err == nil {
		t.Fatal("Reload without a source succeeded")
	} else {
		var he *httpapi.Error
		if !errors.As(err, &he) || he.StatusCode != 404 || he.Code != "no_reload_source" {
			t.Fatalf("Reload without a source: %v, want 404 no_reload_source", err)
		}
	}
	// GET on the admin endpoint: 405.
	resp, err := ts.Client().Get(ts.URL + "/admin/reload")
	if err != nil {
		t.Fatalf("GET /admin/reload: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /admin/reload = %d Allow %q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	status, seq, baseT3 := get(t, ts, "/api/table3")
	if status != 200 || seq != 1 {
		t.Fatalf("pre-reload table3 = %d epoch %d", status, seq)
	}
	computesBefore := s.Computes()

	s.SetReloader(func() (*epoch.Epoch, error) {
		return s.epochs.TryReload("delta", func(cur *osdiversity.Analysis) (*osdiversity.Analysis, error) {
			return cur.ApplyDelta(fx.delta)
		})
	})
	res, err := c.Reload()
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if res.Epoch != 2 || res.Source != "delta" || res.ValidEntries <= fx.base.ValidCount() {
		t.Fatalf("reload result = %+v (base valid %d)", res, fx.base.ValidCount())
	}

	info, err := c.Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	if info.Epoch != 2 || info.ReloadSuccesses != 1 || info.ReloadFailures != 0 {
		t.Fatalf("corpus after reload = epoch %d successes %d failures %d",
			info.Epoch, info.ReloadSuccesses, info.ReloadFailures)
	}
	if info.ValidEntries != res.ValidEntries {
		t.Errorf("corpus valid_entries = %d, reload reported %d", info.ValidEntries, res.ValidEntries)
	}

	// The table3 cache entry was keyed to epoch 1; the new epoch must
	// recompute and answer different bytes (the delta adds a feed year).
	status, seq, newT3 := get(t, ts, "/api/table3")
	if status != 200 || seq != 2 {
		t.Fatalf("post-reload table3 = %d epoch %d", status, seq)
	}
	if bytes.Equal(newT3, baseT3) {
		t.Error("table3 bytes unchanged across a corpus-changing reload")
	}
	if got := s.Computes(); got != computesBefore+1 {
		t.Errorf("computes after reload = %d, want %d (new epoch recomputes once)", got, computesBefore+1)
	}
	// And the fresh entry caches under the new epoch.
	if _, _, again := get(t, ts, "/api/table3"); !bytes.Equal(again, newT3) {
		t.Error("epoch-2 table3 not byte-stable")
	}
	if got := s.Computes(); got != computesBefore+1 {
		t.Errorf("computes after warm epoch-2 hit = %d, want %d", got, computesBefore+1)
	}

	// Failure shapes: each answers its envelope and leaves epoch 2
	// serving the same bytes.
	for _, tc := range []struct {
		name     string
		fn       func() (*epoch.Epoch, error)
		status   int
		code     string
		failures uint64
	}{
		{"build failure", func() (*epoch.Epoch, error) {
			return s.epochs.TryReload("delta", func(*osdiversity.Analysis) (*osdiversity.Analysis, error) {
				return nil, errors.New("corrupt feed")
			})
		}, 500, "reload_failed", 1},
		{"no delta", func() (*epoch.Epoch, error) {
			return nil, epoch.ErrNoDelta
		}, 409, "no_delta", 1},
		{"reload in progress", func() (*epoch.Epoch, error) {
			return nil, epoch.ErrReloadInProgress
		}, 409, "reload_in_progress", 1},
	} {
		s.SetReloader(tc.fn)
		_, err := c.Reload()
		var he *httpapi.Error
		if !errors.As(err, &he) || he.StatusCode != tc.status || he.Code != tc.code {
			t.Fatalf("%s: Reload err = %v, want %d %s", tc.name, err, tc.status, tc.code)
		}
		status, seq, body := get(t, ts, "/api/table3")
		if status != 200 || seq != 2 || !bytes.Equal(body, newT3) {
			t.Fatalf("%s: table3 after failed reload = %d epoch %d (stable=%v)",
				tc.name, status, seq, bytes.Equal(body, newT3))
		}
		info, err := c.Corpus()
		if err != nil {
			t.Fatalf("%s: Corpus: %v", tc.name, err)
		}
		if info.ReloadFailures != tc.failures {
			t.Errorf("%s: reload_failures = %d, want %d", tc.name, info.ReloadFailures, tc.failures)
		}
	}
	if info, _ := c.Corpus(); info.LastReloadError == "" || info.LastReloadUnix == 0 {
		t.Error("corpus does not carry the last reload error")
	}
}

// TestReloadUnderFire is the tentpole's concurrency proof: query
// goroutines hammer the server while reloads — some injected to fail —
// race them. Every response must carry an epoch tag whose body is
// byte-identical to that epoch's precomputed answer (no mixed epochs),
// epochs must be observed monotonically per connection, no query may
// see a 5xx, and the server must not leak goroutines. SQL traffic on
// POST /api/query rides along: its bytes are epoch-independent (the
// imported database does not change across reloads) but its plan cache
// must flush on every swap without corrupting in-flight executions.
// Run with -race.
func TestReloadUnderFire(t *testing.T) {
	fx := makeReloadFixture(t)
	merged, err := fx.base.ApplyDelta(fx.delta)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}

	// The SQL answers the queriers must observe, computed outside the
	// server on a fresh handle.
	sqlProbes := []struct {
		body string
		sql  string
		args []relstore.Value
	}{
		{`{"sql":"SELECT name, family FROM os ORDER BY name"}`,
			`SELECT name, family FROM os ORDER BY name`, nil},
		{`{"sql":"SELECT COUNT(DISTINCT vuln_id) FROM os_vuln WHERE os_id = ?","args":[3]}`,
			`SELECT COUNT(DISTINCT vuln_id) FROM os_vuln WHERE os_id = ?`,
			[]relstore.Value{relstore.Int(3)}},
	}
	freshDB, err := vulndb.Open(fx.dbPath)
	if err != nil {
		t.Fatalf("vulndb.Open: %v", err)
	}
	wantSQL := make([][]byte, len(sqlProbes))
	for i, p := range sqlProbes {
		res, err := freshDB.Store().Query(p.sql, p.args...)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		wantSQL[i], err = httpapi.Marshal(BuildQueryResult(res))
		if err != nil {
			t.Fatalf("probe %d: marshal: %v", i, err)
		}
	}

	paths := []string{"/api/table1", "/api/table3", "/api/kwise", "/api/table5?split=2004"}
	want := map[uint64]map[string][]byte{1: {}, 2: {}}
	for epSeq, a := range map[uint64]*osdiversity.Analysis{1: fx.base, 2: merged} {
		split := CanonSplitYear(a, 2004)
		for path, doc := range map[string]any{
			"/api/table1":            BuildTable1(a),
			"/api/table3":            BuildTable3(a),
			"/api/kwise":             BuildKWise(a),
			"/api/table5?split=2004": BuildTable5(a, split),
		} {
			body, err := httpapi.Marshal(doc)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			want[epSeq][path] = body
		}
	}
	// Every successful reload rebuilds base+delta, so epochs 3, 4, ...
	// answer the same bytes as epoch 2.
	expected := func(seq uint64, path string) []byte {
		if seq <= 1 {
			return want[1][path]
		}
		return want[2][path]
	}

	goroutinesBefore := runtime.NumGoroutine()

	m := epoch.NewManager(epoch.Config{})
	m.Install(fx.base, "feeds:x")
	s := NewResident(m, Config{Source: "feeds:x", Workers: 4, MaxInFlight: 8, DBPath: fx.dbPath})
	ts := httptest.NewServer(s.Handler())
	c := ts.Client()

	// Open the resident database before the storm, so every epoch swap
	// below finds it resident and must flush its plan cache.
	resp, err := c.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(sqlProbes[0].body))
	if err != nil {
		t.Fatalf("priming query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("priming query status = %d", resp.StatusCode)
	}

	const (
		queriers    = 8
		sqlQueriers = 4
		rounds      = 6 // alternating success / injected failure
	)
	done := make(chan struct{})
	var (
		wg       sync.WaitGroup
		failures atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var lastSeq uint64
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				path := paths[(i+n)%len(paths)]
				resp, err := c.Get(ts.URL + path)
				if err != nil {
					fail("GET %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail("GET %s: read: %v", path, err)
					return
				}
				if resp.StatusCode != 200 {
					fail("GET %s: status %d body %q (queries must never 5xx across reloads)",
						path, resp.StatusCode, body)
					return
				}
				seq, err := strconv.ParseUint(resp.Header.Get("X-Osdiv-Epoch"), 10, 64)
				if err != nil {
					fail("GET %s: epoch header %q", path, resp.Header.Get("X-Osdiv-Epoch"))
					return
				}
				if seq < lastSeq {
					fail("GET %s: epoch went backwards %d -> %d", path, lastSeq, seq)
					return
				}
				lastSeq = seq
				if !bytes.Equal(body, expected(seq, path)) {
					fail("GET %s: epoch-%d body differs from that epoch's canonical answer", path, seq)
					return
				}
			}
		}(i)
	}

	// SQL queriers ride the same storm through POST /api/query. The
	// database never changes, so every response — whatever epoch it
	// lands on, however many plan-cache flushes raced it — must answer
	// the same canonical bytes.
	for i := 0; i < sqlQueriers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var lastSeq uint64
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				p := (i + n) % len(sqlProbes)
				resp, err := c.Post(ts.URL+"/api/query", "application/json",
					strings.NewReader(sqlProbes[p].body))
				if err != nil {
					fail("POST /api/query: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail("POST /api/query: read: %v", err)
					return
				}
				if resp.StatusCode != 200 {
					fail("POST /api/query: status %d body %q (queries must never fail across reloads)",
						resp.StatusCode, body)
					return
				}
				seq, err := strconv.ParseUint(resp.Header.Get("X-Osdiv-Epoch"), 10, 64)
				if err != nil {
					fail("POST /api/query: epoch header %q", resp.Header.Get("X-Osdiv-Epoch"))
					return
				}
				if seq < lastSeq {
					fail("POST /api/query: epoch went backwards %d -> %d", lastSeq, seq)
					return
				}
				lastSeq = seq
				if !bytes.Equal(body, wantSQL[p]) {
					fail("POST /api/query: probe-%d body differs across reload (epoch %d)", p, seq)
					return
				}
			}
		}(i)
	}

	injected := errors.New("injected reload fault")
	var successes, faults int
	for n := 0; n < rounds; n++ {
		if n%2 == 1 {
			_, err := m.TryReload("delta", func(*osdiversity.Analysis) (*osdiversity.Analysis, error) {
				return nil, injected
			})
			if !errors.Is(err, injected) {
				t.Fatalf("round %d: injected reload err = %v", n, err)
			}
			faults++
			continue
		}
		// Rebuild from the pinned original base so every epoch's bytes
		// stay predictable regardless of how many swaps preceded it.
		ep, err := m.TryReload("delta", func(*osdiversity.Analysis) (*osdiversity.Analysis, error) {
			return fx.base.ApplyDelta(fx.delta)
		})
		if err != nil {
			t.Fatalf("round %d: reload: %v", n, err)
		}
		if ep.Seq != uint64(2+successes) {
			t.Fatalf("round %d: epoch seq = %d, want %d", n, ep.Seq, 2+successes)
		}
		successes++
		// Hold the next round until a request has resolved this epoch:
		// the per-swap cache prune (and with it the plan-cache flush)
		// rides on the first request that observes the new epoch, and a
		// swap nothing ever observed would flush nothing.
		for {
			if _, seq, _ := get(t, ts, "/api/table1"); seq == ep.Seq {
				break
			}
		}
	}

	close(done)
	wg.Wait()

	// Two distinct-literal queries of one shape: whatever the flushes
	// left behind, the second must hit the plan the first compiled.
	for _, body := range []string{
		`{"sql":"SELECT COUNT(DISTINCT vuln_id) FROM os_vuln WHERE os_id = ?","args":[5]}`,
		`{"sql":"SELECT COUNT(DISTINCT vuln_id) FROM os_vuln WHERE os_id = ?","args":[6]}`,
	} {
		resp, err := c.Post(ts.URL+"/api/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post-storm query: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("post-storm query status = %d", resp.StatusCode)
		}
	}
	ts.Close()

	if failures.Load() > 0 {
		t.Fatalf("%d query goroutines observed violations", failures.Load())
	}
	st := m.Status()
	if st.Successes != uint64(successes) || st.Failures != uint64(faults) {
		t.Errorf("status = %+v, want %d successes %d failures", st, successes, faults)
	}
	if st.Seq != uint64(1+successes) {
		t.Errorf("final seq = %d, want %d", st.Seq, 1+successes)
	}

	// The SQL surface ran throughout, so the resident database is open
	// and its plan cache must show the per-epoch flushes: each of the 3
	// successful swaps invalidates once (the first request resolving the
	// new epoch carries the flush), and the queriers' repeated shapes
	// must still have produced hits between flushes.
	pc := s.planCacheInfo()
	if pc == nil {
		t.Fatal("plan cache absent after SQL traffic")
	}
	if pc.Invalidations < uint64(successes) {
		t.Errorf("plan cache invalidations = %d, want >= %d (one per epoch swap)",
			pc.Invalidations, successes)
	}
	if pc.Hits == 0 {
		t.Error("plan cache recorded no hits under repeated-shape traffic")
	}

	// The server and test must drain back to the baseline goroutine
	// count — a leaked per-request or per-reload goroutine fails here.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= goroutinesBefore+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: before %d, after %d\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSaturationShedsWithRetryAfter fills every compute slot and
// asserts a request that cannot acquire one within MaxQueueWait is shed
// with the typed 503 overloaded envelope and a Retry-After header —
// then succeeds once a slot frees.
func TestSaturationShedsWithRetryAfter(t *testing.T) {
	a, err := osdiversity.LoadCalibrated()
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	s := New(a, Config{Workers: 1, MaxInFlight: 1, MaxQueueWait: 10 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.rsp.limiter <- struct{}{} // occupy the only compute slot

	resp, err := ts.Client().Get(ts.URL + "/api/table3")
	if err != nil {
		t.Fatalf("GET under saturation: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated GET = %d %q, want 503", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"overloaded"`)) {
		t.Errorf("saturated body = %q, want overloaded envelope", body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	// Health must still answer instantly while saturated.
	if status, _, body := get(t, ts, "/healthz"); status != 200 {
		t.Errorf("/healthz under saturation = %d %q", status, body)
	}
	// A shed error must not be cached: freeing the slot lets the same
	// request compute and succeed.
	<-s.rsp.limiter
	if status, _, _ := get(t, ts, "/api/table3"); status != 200 {
		t.Errorf("GET after slot freed = %d, want 200", status)
	}

	// Coalesced waiters behind a slow leader share its fate instead of
	// each burning a queue-wait: N concurrent identical requests under
	// saturation produce N shed responses but zero computes.
	s.rsp.limiter <- struct{}{}
	var wg sync.WaitGroup
	sheds := make([]int, 4)
	for i := range sheds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/api/kwise")
			if err != nil {
				return
			}
			resp.Body.Close()
			sheds[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	<-s.rsp.limiter
	for i, status := range sheds {
		if status != http.StatusServiceUnavailable {
			t.Errorf("saturated concurrent request %d = %d, want 503", i, status)
		}
	}
}
