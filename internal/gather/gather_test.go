package gather_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"osdiversity"
	"osdiversity/internal/classify"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/epoch"
	"osdiversity/internal/gather"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/nvdfeed"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// newShardBackends boots n shard servers over the calibrated corpus at
// the given worker count and returns their base URLs in shard order.
func newShardBackends(t testing.TB, n, workers int) []string {
	t.Helper()
	backends := make([]string, 0, n)
	for i := 1; i <= n; i++ {
		a, err := osdiversity.LoadCalibrated(
			osdiversity.WithParallelism(workers), osdiversity.WithYearShard(i, n))
		if err != nil {
			t.Fatalf("LoadCalibrated shard %d/%d: %v", i, n, err)
		}
		srv := server.New(a, server.Config{
			Source: "calibrated", Engine: "bitset", Workers: workers,
			Shard: fmt.Sprintf("%d/%d", i, n),
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		backends = append(backends, ts.URL)
	}
	return backends
}

// newGateway serves a gateway over the backends; probe freshness is
// disabled (every request re-resolves the epoch vector) unless the test
// overrides cfg.RevalidateAfter.
func newGateway(t testing.TB, cfg gather.Config) (*gather.Gateway, *httptest.Server) {
	t.Helper()
	if cfg.RevalidateAfter == 0 {
		cfg.RevalidateAfter = -1
	}
	if cfg.Retry.Attempts == 0 {
		cfg.Retry.Attempts = 1
	}
	gw, err := gather.New(cfg)
	if err != nil {
		t.Fatalf("gather.New: %v", err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

// fetch GETs base+path and returns status and body.
func fetch(t testing.TB, base, path string) (int, []byte) {
	t.Helper()
	status, _, body := do(t, http.MethodGet, base+path, "")
	return status, body
}

// do sends one request — a POST of body when it is set — and returns
// status, headers and body.
func do(t testing.TB, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, raw
}

// probe is one request of the identity sweep: a GET of target, or a
// POST of body when it is set.
type probe struct{ target, body string }

func (p probe) method() string {
	if p.body != "" {
		return http.MethodPost
	}
	return http.MethodGet
}

func gets(targets ...string) []probe {
	out := make([]probe, len(targets))
	for i, target := range targets {
		out[i] = probe{target: target}
	}
	return out
}

// identityProbes is the endpoint matrix the byte-identity gate runs:
// every merged endpoint, parameter canonicalization cases, and the
// shared 400 envelopes.
var identityProbes = append(gets(
	"/api/table1",
	"/api/table2",
	"/api/table3",
	"/api/table4",
	"/api/table5",
	"/api/table5?split=2000",
	"/api/table5?split=1900", // clamps to the corpus range at the gateway's merged lo
	"/api/temporal?os=Debian",
	"/api/temporal?os=Windows2000",
	"/api/kwise",
	"/api/mostshared",
	"/api/mostshared?n=10",
	"/api/mostshared?n=1073741824", // canonicalizes onto the merged valid count
	"/api/select?k=2&one-per-family=true&top=5",
	"/api/select?k=1&top=3&to=1999",
	"/api/releases",
	"/api/releases?a=Debian&va=4.0&b=RedHat&vb=5.0",
	// Without databases both tiers answer the same 404 no_database.
	"/api/sqltable3",
	// The 400 envelopes must match byte for byte too.
	"/api/table5?split=abc",
	"/api/temporal",
	"/api/temporal?os=NotAnOS",
	"/api/mostshared?n=0",
	"/api/releases?a=Debian&va=4.0",
	"/api/select?k=99",
	// GET on the POST-only recommend endpoint: both tiers answer the
	// same 405 method_not_allowed envelope.
	"/api/recommend",
), probe{"/api/query", `{"sql":"SELECT name, year FROM vulnerability WHERE year >= ?","args":[2000]}`})

// assertIdentical runs every identity probe against the reference
// server and the gateway and compares status and body.
func assertIdentical(t *testing.T, ref, gw string) {
	t.Helper()
	for _, p := range identityProbes {
		wantStatus, _, want := do(t, p.method(), ref+p.target, p.body)
		gotStatus, _, got := do(t, p.method(), gw+p.target, p.body)
		if gotStatus != wantStatus {
			t.Errorf("%s %s: status = %d, want %d", p.method(), p.target, gotStatus, wantStatus)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s: gateway body differs\n got: %s\nwant: %s", p.method(), p.target, got, want)
		}
	}
}

// TestGatewayByteIdentity is the tentpole acceptance gate: a gateway
// over 1, 2 and 4 shards, at workers 1 and 4, answers every table
// endpoint byte-identically to one server over the whole corpus — and
// so does a gateway over an empty corpus, whose every shard is empty.
func TestGatewayByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the corpus per shard")
	}
	a, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(1))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	ref := httptest.NewServer(server.New(a, server.Config{
		Source: "calibrated", Engine: "bitset", Workers: 1,
	}).Handler())
	defer ref.Close()

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				backends := newShardBackends(t, shards, workers)
				_, gwts := newGateway(t, gather.Config{Backends: backends})
				assertIdentical(t, ref.URL, gwts.URL)
			})
		}
	}

	// Feed-backed shards: LoadFeeds collects its stream to take the
	// year slice, over an empty feed and over the calibrated feeds.
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.xml")
	if err := nvdfeed.WriteFile(empty, "empty", nil); err != nil {
		t.Fatalf("write empty feed: %v", err)
	}
	calibrated, err := osdiversity.GenerateFeeds(filepath.Join(dir, "feeds"), osdiversity.WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	serve := func(t *testing.T, feeds []string, opts ...osdiversity.Option) string {
		a, err := osdiversity.LoadFeeds(feeds, opts...)
		if err != nil {
			t.Fatalf("LoadFeeds: %v", err)
		}
		ts := httptest.NewServer(server.New(a, server.Config{Source: "feeds", Workers: 1}).Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	for _, tc := range []struct {
		name   string
		feeds  []string
		shards []int
	}{
		{"empty", []string{empty}, []int{1, 2}},
		{"feeds", calibrated, []int{2, 4}},
	} {
		ref := serve(t, tc.feeds)
		for _, shards := range tc.shards {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				backends := make([]string, shards)
				for i := range backends {
					backends[i] = serve(t, tc.feeds, osdiversity.WithYearShard(i+1, shards))
				}
				_, gwts := newGateway(t, gather.Config{Backends: backends})
				assertIdentical(t, ref, gwts.URL)
			})
		}
	}
}

// TestIdentityProbesCoverTable derives the identity gate's coverage
// from the endpoint table: every endpoint the gateway merges needs an
// identity probe, so a new mergeable endpoint cannot skip the gate.
func TestIdentityProbesCoverTable(t *testing.T) {
	for _, r := range server.Routes() {
		if !r.Merged {
			continue
		}
		covered := false
		for _, p := range identityProbes {
			path, _, _ := strings.Cut(p.target, "?")
			covered = covered || (path == r.Path && p.method() == r.Method)
		}
		if !covered {
			t.Errorf("%s %s has no identity probe", r.Method, r.Path)
		}
	}
}

// TestMethodNotAllowedSweep: every declared path answers the wrong
// method with the same 405 envelope and Allow header at both tiers.
func TestMethodNotAllowedSweep(t *testing.T) {
	a, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(1))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	ref := httptest.NewServer(server.New(a, server.Config{Workers: 1}).Handler())
	defer ref.Close()
	_, gwts := newGateway(t, gather.Config{Backends: newShardBackends(t, 1, 1)})

	for _, r := range server.Routes() {
		wrong := http.MethodPost
		if r.Method == http.MethodPost {
			wrong = http.MethodGet
		}
		wantStatus, wantHdr, want := do(t, wrong, ref.URL+r.Path, "")
		gotStatus, gotHdr, got := do(t, wrong, gwts.URL+r.Path, "")
		if wantStatus != http.StatusMethodNotAllowed || wantHdr.Get("Allow") != r.Method {
			t.Errorf("server %s %s = %d Allow %q, want 405 Allow %s",
				wrong, r.Path, wantStatus, wantHdr.Get("Allow"), r.Method)
		}
		if gotStatus != wantStatus || gotHdr.Get("Allow") != wantHdr.Get("Allow") || !bytes.Equal(got, want) {
			t.Errorf("gateway %s %s = %d Allow %q %s, server %d Allow %q %s", wrong, r.Path,
				gotStatus, gotHdr.Get("Allow"), got, wantStatus, wantHdr.Get("Allow"), want)
		}
	}
}

// shardedDBs builds the full reference database plus n shard databases
// over the calibrated entries, all in canonical feed order so the
// concatenated shard scans reproduce the full scan.
func shardedDBs(t testing.TB, n int) (*vulndb.DB, []*vulndb.DB) {
	t.Helper()
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	var ordered []*cve.Entry
	for _, g := range corpus.SplitByYear(c.Entries) {
		ordered = append(ordered, g.Entries...)
	}
	cls := classify.NewClassifier()
	build := func(entries []*cve.Entry) *vulndb.DB {
		db, err := vulndb.Create()
		if err != nil {
			t.Fatalf("vulndb.Create: %v", err)
		}
		if _, _, err := db.LoadEntries(entries, cls); err != nil {
			t.Fatalf("LoadEntries: %v", err)
		}
		return db
	}
	full := build(ordered)
	shards := make([]*vulndb.DB, 0, n)
	for i := 0; i < n; i++ {
		shards = append(shards, build(corpus.ShardByYear(ordered, i, n)))
	}
	return full, shards
}

// postQuery POSTs one /api/query request and returns status and body.
func postQuery(t testing.TB, base, sql string, args ...any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(httpapi.QueryRequest{SQL: sql, Args: args})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/api/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /api/query: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return resp.StatusCode, body
}

// TestGatewaySQLIdentity: /api/query row concatenation and the
// /api/sqltable3 matrix merge reproduce the unsharded database's bytes.
func TestGatewaySQLIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("imports the corpus into multiple databases")
	}
	const shards = 2
	full, shardDBs := shardedDBs(t, shards)

	a, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(1))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	refSrv := server.New(a, server.Config{Source: "calibrated", Engine: "bitset", Workers: 1})
	refSrv.SetDatabase(full)
	ref := httptest.NewServer(refSrv.Handler())
	defer ref.Close()

	backends := make([]string, 0, shards)
	for i := 1; i <= shards; i++ {
		sa, err := osdiversity.LoadCalibrated(
			osdiversity.WithParallelism(1), osdiversity.WithYearShard(i, shards))
		if err != nil {
			t.Fatalf("LoadCalibrated shard: %v", err)
		}
		srv := server.New(sa, server.Config{
			Source: "calibrated", Engine: "bitset", Workers: 1,
			Shard: fmt.Sprintf("%d/%d", i, shards),
		})
		srv.SetDatabase(shardDBs[i-1])
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		backends = append(backends, ts.URL)
	}
	_, gwts := newGateway(t, gather.Config{Backends: backends})

	// Intrinsic columns only: surrogate ids renumber per shard import,
	// and the replicated os dimension table would duplicate rows.
	queries := []struct {
		sql  string
		args []any
	}{
		{"SELECT name, year FROM vulnerability WHERE year >= ?", []any{2000}},
		{"SELECT name FROM vulnerability WHERE year = ? AND name LIKE ?", []any{2005, "CVE-%"}},
		{"SELECT name, year FROM vulnerability WHERE year < ?", []any{1996}},
	}
	for _, q := range queries {
		wantStatus, want := postQuery(t, ref.URL, q.sql, q.args...)
		gotStatus, got := postQuery(t, gwts.URL, q.sql, q.args...)
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Errorf("query %q: status %d/%d\n got: %.200s\nwant: %.200s",
				q.sql, gotStatus, wantStatus, got, want)
		}
	}

	wantStatus, want := fetch(t, ref.URL, "/api/sqltable3")
	gotStatus, got := fetch(t, gwts.URL, "/api/sqltable3")
	if gotStatus != wantStatus || !bytes.Equal(got, want) {
		t.Errorf("/api/sqltable3: status %d/%d\n got: %.200s\nwant: %.200s",
			gotStatus, wantStatus, got, want)
	}

	// Statements whose results are not per-row functions of the
	// partition refuse with the typed 501.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM vulnerability",
		"SELECT DISTINCT year FROM vulnerability",
		"SELECT name FROM vulnerability ORDER BY name",
		"SELECT year FROM vulnerability GROUP BY year",
		"SELECT name FROM vulnerability LIMIT 5",
	} {
		status, body := postQuery(t, gwts.URL, sql)
		var env httpapi.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%q: non-envelope body %s", sql, body)
		}
		if status != http.StatusNotImplemented || env.Error.Code != "unsupported_on_gateway" {
			t.Errorf("%q: got %d %s, want 501 unsupported_on_gateway", sql, status, env.Error.Code)
		}
	}

	// Non-SELECT draws the same envelope the single server answers.
	status, body := postQuery(t, gwts.URL, "DELETE FROM vulnerability")
	refStatus, refBody := postQuery(t, ref.URL, "DELETE FROM vulnerability")
	if status != refStatus || !bytes.Equal(body, refBody) {
		t.Errorf("non-SELECT: gateway %d %s, server %d %s", status, body, refStatus, refBody)
	}
}

// TestGatewayDegradedShard: killing one backend turns every scattered
// endpoint into the typed 503 shard_unavailable naming the backend.
func TestGatewayDegradedShard(t *testing.T) {
	backends := newShardBackends(t, 2, 1)
	victim := backends[1]

	// Re-dial the victim's listener directly so we can close it.
	a, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(1), osdiversity.WithYearShard(2, 2))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	dead := httptest.NewServer(server.New(a, server.Config{
		Source: "calibrated", Engine: "bitset", Workers: 1, Shard: "2/2",
	}).Handler())
	backends[1] = dead.URL
	victim = dead.URL
	_, gwts := newGateway(t, gather.Config{Backends: backends})

	if status, _ := fetch(t, gwts.URL, "/api/table1"); status != http.StatusOK {
		t.Fatalf("healthy fleet: status %d", status)
	}
	dead.Close()

	status, body := fetch(t, gwts.URL, "/api/table1")
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("non-envelope degraded body: %s", body)
	}
	if status != http.StatusServiceUnavailable || env.Error.Code != "shard_unavailable" {
		t.Fatalf("degraded: got %d %s, want 503 shard_unavailable", status, env.Error.Code)
	}
	if !strings.Contains(env.Error.Message, victim) {
		t.Errorf("degraded message %q does not name backend %s", env.Error.Message, victim)
	}

	// /readyz degrades with per-shard context.
	status, body = fetch(t, gwts.URL, "/readyz")
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("non-envelope /readyz body: %s", body)
	}
	if status != http.StatusServiceUnavailable || env.Error.Code != "not_ready" {
		t.Errorf("/readyz degraded: got %d %s, want 503 not_ready", status, env.Error.Code)
	}
}

// TestGatewayEpochVector: responses carry the joined shard epoch
// vector; a shard hot-reloading changes the vector and flushes the
// merged-response cache.
func TestGatewayEpochVector(t *testing.T) {
	a1, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(1), osdiversity.WithYearShard(1, 2))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	a2, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(1), osdiversity.WithYearShard(2, 2))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	m1 := epoch.NewManager(epoch.Config{})
	m1.Install(a1, "calibrated")
	m2 := epoch.NewManager(epoch.Config{})
	m2.Install(a2, "calibrated")
	s1 := httptest.NewServer(server.NewResident(m1, server.Config{
		Source: "calibrated", Engine: "bitset", Workers: 1, Shard: "1/2"}).Handler())
	defer s1.Close()
	s2 := httptest.NewServer(server.NewResident(m2, server.Config{
		Source: "calibrated", Engine: "bitset", Workers: 1, Shard: "2/2"}).Handler())
	defer s2.Close()

	gw, gwts := newGateway(t, gather.Config{Backends: []string{s1.URL, s2.URL}})

	get := func() (string, []byte) {
		resp, err := http.Get(gwts.URL + "/api/table3")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Osdiv-Epoch"), body
	}

	vec, body1 := get()
	if vec != "1,1" {
		t.Fatalf("epoch vector = %q, want 1,1", vec)
	}
	if n := gw.Computes(); n != 1 {
		t.Fatalf("computes = %d after first request, want 1", n)
	}
	if vec, _ = get(); vec != "1,1" {
		t.Fatalf("epoch vector = %q on cached request", vec)
	}
	if n := gw.Computes(); n != 1 {
		t.Fatalf("computes = %d on cache hit, want 1", n)
	}

	// Shard 2 swaps an epoch: vector changes, cache flushes, bytes stay
	// identical (same slice content).
	m2.Install(a2, "calibrated")
	vec, body2 := get()
	if vec != "1,2" {
		t.Fatalf("epoch vector = %q after reload, want 1,2", vec)
	}
	if n := gw.Computes(); n != 2 {
		t.Fatalf("computes = %d after vector change, want 2", n)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("table3 bytes changed across an identical-content reload")
	}

	// /readyz reports the vector and per-shard epochs.
	_, body := fetch(t, gwts.URL, "/readyz")
	var ready httpapi.GatewayReady
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatalf("decode /readyz: %v", err)
	}
	if ready.Status != "ok" || ready.Epochs != "1,2" || len(ready.Shards) != 2 {
		t.Errorf("/readyz = %+v, want ok with epochs 1,2 over 2 shards", ready)
	}
	if ready.Shards[1].Epoch != 2 {
		t.Errorf("shard 2 epoch = %d, want 2", ready.Shards[1].Epoch)
	}

	// /corpus merges the shard identities.
	_, body = fetch(t, gwts.URL, "/corpus")
	var gc httpapi.GatewayCorpus
	if err := json.Unmarshal(body, &gc); err != nil {
		t.Fatalf("decode /corpus: %v", err)
	}
	if gc.ValidEntries != a1.ValidCount()+a2.ValidCount() {
		t.Errorf("merged valid = %d, want %d", gc.ValidEntries, a1.ValidCount()+a2.ValidCount())
	}
	lo1, _ := a1.YearRange()
	_, hi2 := a2.YearRange()
	if gc.YearFrom != lo1 || gc.YearTo != hi2 {
		t.Errorf("merged range [%d, %d], want [%d, %d]", gc.YearFrom, gc.YearTo, lo1, hi2)
	}
	if gc.Shards[0].Shard != "1/2" || gc.Shards[1].Shard != "2/2" {
		t.Errorf("shard identities = %q, %q", gc.Shards[0].Shard, gc.Shards[1].Shard)
	}
}

// TestGatewayCoalescing: concurrent identical cold requests coalesce
// into one scatter+merge computation.
func TestGatewayCoalescing(t *testing.T) {
	backends := newShardBackends(t, 2, 1)
	gw, gwts := newGateway(t, gather.Config{
		Backends:        backends,
		RevalidateAfter: time.Minute, // one probe serves the whole stampede
	})
	// Resolve once so the stampede shares the cached vector.
	if status, _ := fetch(t, gwts.URL, "/healthz"); status != http.StatusOK {
		t.Fatal("healthz failed")
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(gwts.URL + "/api/table2")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent GET: %v", err)
	}
	if n := gw.Computes(); n != 1 {
		t.Errorf("computes = %d for %d concurrent identical requests, want 1", n, clients)
	}
}

// TestGatewayUnsupported: every endpoint the table declares without a
// merge — the corpus-global ones and the per-shard reload — refuses at
// the gateway with the typed 501 instead of answering something subtly
// wrong.
func TestGatewayUnsupported(t *testing.T) {
	backends := newShardBackends(t, 1, 1)
	_, gwts := newGateway(t, gather.Config{Backends: backends})

	refused := 0
	for _, r := range server.Routes() {
		if !r.Refused {
			continue
		}
		refused++
		status, _, body := do(t, r.Method, gwts.URL+r.Path, "")
		var env httpapi.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: non-envelope body: %s", r.Path, body)
		}
		if status != http.StatusNotImplemented || env.Error.Code != "unsupported_on_gateway" {
			t.Errorf("%s %s: got %d %s, want 501 unsupported_on_gateway", r.Method, r.Path, status, env.Error.Code)
		}
	}
	if refused < 3 {
		t.Errorf("table refuses %d endpoints at the gateway, want attack, recommend and reload", refused)
	}

	if status, _ := fetch(t, gwts.URL, "/api/nope"); status != http.StatusNotFound {
		t.Errorf("unknown endpoint: status %d, want 404", status)
	}
}
