package server_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// newTestServer builds a server over the calibrated corpus at the given
// worker count and returns it with its httptest frontend and client.
func newTestServer(t testing.TB, workers int) (*server.Server, *httptest.Server, *httpapi.Client) {
	t.Helper()
	a, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(workers))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	srv := server.New(a, server.Config{Source: "calibrated", Engine: "bitset", Workers: workers})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := httpapi.NewClient(ts.URL)
	c.HTTP = ts.Client()
	return srv, ts, c
}

func TestHealthz(t *testing.T) {
	_, _, c := newTestServer(t, 1)
	h, err := c.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	raw, err := c.GetRaw("/healthz", nil)
	if err != nil {
		t.Fatalf("GetRaw /healthz: %v", err)
	}
	if got, want := string(raw), "{\"status\":\"ok\"}\n"; got != want {
		t.Errorf("/healthz body = %q, want %q", got, want)
	}
}

func TestCorpusMetadata(t *testing.T) {
	_, _, c := newTestServer(t, 2)
	info, err := c.Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	if info.Source != "calibrated" || info.Engine != "bitset" || info.Workers != 2 {
		t.Errorf("corpus identity = %+v", info)
	}
	if info.ValidEntries != 1887 {
		t.Errorf("valid_entries = %d, want the paper's 1887", info.ValidEntries)
	}
	if info.Distros != 11 || len(info.OSNames) != 11 {
		t.Errorf("distros = %d (%d names), want 11", info.Distros, len(info.OSNames))
	}
	if info.YearFrom >= info.YearTo {
		t.Errorf("year range [%d, %d] not increasing", info.YearFrom, info.YearTo)
	}
	if info.SQL {
		t.Error("sql = true without a database")
	}
}

// endpointProbe is one request of the endpoint sweeps: a GET of path
// and query, or a POST of body when it is set, with the facade builder
// producing its expected document.
type endpointProbe struct {
	name  string
	path  string
	query url.Values
	body  any
	doc   func() (any, error)
}

// fetch sends the probe's request through c.
func (p endpointProbe) fetch(c *httpapi.Client) ([]byte, error) {
	if p.body != nil {
		return c.PostJSON(p.path, p.body)
	}
	return c.GetRaw(p.path, p.query)
}

// endpointProbes enumerates every deterministic endpoint with the
// facade builder producing its expected document.
func endpointProbes(a *osdiversity.Analysis) []endpointProbe {
	return []endpointProbe{
		{"table1", "/api/table1", nil, nil,
			func() (any, error) { return server.BuildTable1(a), nil }},
		{"table2", "/api/table2", nil, nil,
			func() (any, error) { return server.BuildTable2(a), nil }},
		{"table3", "/api/table3", nil, nil,
			func() (any, error) { return server.BuildTable3(a), nil }},
		{"table4", "/api/table4", nil, nil,
			func() (any, error) { return server.BuildTable4(a), nil }},
		{"table5", "/api/table5", url.Values{"split": {"2005"}}, nil,
			func() (any, error) { return server.BuildTable5(a, 2005), nil }},
		{"temporal", "/api/temporal", url.Values{"os": {"Debian"}}, nil,
			func() (any, error) { return server.BuildTemporal(a, "Debian") }},
		{"kwise", "/api/kwise", nil, nil,
			func() (any, error) { return server.BuildKWise(a), nil }},
		{"mostshared", "/api/mostshared", url.Values{"n": {"10"}}, nil,
			func() (any, error) { return server.BuildMostShared(a, 10), nil }},
		{"select", "/api/select", url.Values{"k": {"4"}, "one-per-family": {"true"}, "top": {"3"}, "to": {"2005"}}, nil,
			func() (any, error) { return server.BuildSelect(a, 4, true, 2005, 3), nil }},
		{"releases", "/api/releases", nil, nil,
			func() (any, error) { return server.BuildReleases(a) }},
		{"release cell", "/api/releases", url.Values{"a": {"Debian"}, "va": {"4.0"}, "b": {"RedHat"}, "vb": {"5.0"}}, nil,
			func() (any, error) { return server.BuildReleaseOverlap(a, "Debian", "4.0", "RedHat", "5.0") }},
		{"attack", "/api/attack", url.Values{
			"name": {"Set1"}, "os": {"Windows2003", "Solaris", "Debian", "OpenBSD"},
			"f": {"1"}, "trials": {"20"}}, nil,
			func() (any, error) {
				return server.BuildAttack(a, "Set1",
					[]string{"Windows2003", "Solaris", "Debian", "OpenBSD"}, 1, 20)
			}},
		{"recommend", "/api/recommend", nil, recommendSpec,
			func() (any, error) {
				canon, err := server.CanonRecommend(a, recommendSpec)
				if err != nil {
					return nil, err
				}
				return server.BuildRecommend(a, canon)
			}},
	}
}

// TestEndpointProbesCoverTable derives the sweep's coverage from the
// endpoint table: every computed endpoint the gateway does not merge
// needs a probe here (the merged ones are covered by the gateway's
// identity probes), so a new endpoint cannot miss the identity gates.
func TestEndpointProbesCoverTable(t *testing.T) {
	probes := endpointProbes(nil)
	for _, r := range server.Routes() {
		if !r.Computed || r.Merged {
			continue
		}
		covered := false
		for _, p := range probes {
			covered = covered || (p.path == r.Path && (p.body != nil) == (r.Method == http.MethodPost))
		}
		if !covered {
			t.Errorf("%s %s has no endpoint probe", r.Method, r.Path)
		}
	}
}

// TestEndpointIdentityAcrossWorkers is the acceptance gate: every
// endpoint's JSON must equal the facade output byte for byte, at
// workers 1 and at workers 4, and the two servers must agree with each
// other.
func TestEndpointIdentityAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the corpus twice")
	}
	a1, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(1))
	if err != nil {
		t.Fatalf("LoadCalibrated(1): %v", err)
	}
	a4, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(4))
	if err != nil {
		t.Fatalf("LoadCalibrated(4): %v", err)
	}
	clients := make(map[int]*httpapi.Client)
	for workers, a := range map[int]*osdiversity.Analysis{1: a1, 4: a4} {
		srv := server.New(a, server.Config{Source: "calibrated", Engine: "bitset", Workers: workers})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		c := httpapi.NewClient(ts.URL)
		c.HTTP = ts.Client()
		clients[workers] = c
	}

	for _, probe := range endpointProbes(a1) {
		t.Run(probe.name, func(t *testing.T) {
			doc, err := probe.doc()
			if err != nil {
				t.Fatalf("facade build: %v", err)
			}
			want, err := httpapi.Marshal(doc)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			bodies := make(map[int][]byte)
			for workers, c := range clients {
				body, err := probe.fetch(c)
				if err != nil {
					t.Fatalf("%s (workers %d): %v", probe.path, workers, err)
				}
				bodies[workers] = body
			}
			if !bytes.Equal(bodies[1], want) {
				t.Errorf("workers-1 body differs from facade output\n got: %.200s\nwant: %.200s",
					bodies[1], want)
			}
			if !bytes.Equal(bodies[1], bodies[4]) {
				t.Errorf("workers-1 and workers-4 bodies differ\n  w1: %.200s\n  w4: %.200s",
					bodies[1], bodies[4])
			}
		})
	}
}

// TestSnapshotBootIdentity boots one server from the calibrated build
// and one from its snapshot file: every endpoint must answer identical
// bytes, and /corpus must carry the snapshot provenance.
func TestSnapshotBootIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the corpus")
	}
	path := filepath.Join(t.TempDir(), "study.osds")
	built, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(2), osdiversity.WithSnapshot(path))
	if err != nil {
		t.Fatalf("LoadCalibrated(WithSnapshot): %v", err)
	}
	loaded, err := osdiversity.LoadSnapshot(path, osdiversity.WithParallelism(2))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	t.Cleanup(func() { loaded.Close() })

	clients := make(map[string]*httpapi.Client)
	for name, a := range map[string]*osdiversity.Analysis{"feed": built, "snapshot": loaded} {
		srv := server.New(a, server.Config{Source: name, Engine: "bitset", Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c := httpapi.NewClient(ts.URL)
		c.HTTP = ts.Client()
		clients[name] = c
	}

	for _, probe := range endpointProbes(built) {
		t.Run(probe.name, func(t *testing.T) {
			feed, err := probe.fetch(clients["feed"])
			if err != nil {
				t.Fatalf("%s (feed): %v", probe.path, err)
			}
			snap, err := probe.fetch(clients["snapshot"])
			if err != nil {
				t.Fatalf("%s (snapshot): %v", probe.path, err)
			}
			if !bytes.Equal(feed, snap) {
				t.Errorf("snapshot-booted body differs from feed-booted body\nfeed: %.200s\nsnap: %.200s", feed, snap)
			}
		})
	}

	info, err := clients["snapshot"].Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	if !strings.HasPrefix(info.SnapshotDigest, "crc32c:") {
		t.Errorf("snapshot_digest = %q, want crc32c-prefixed", info.SnapshotDigest)
	}
	if info.EpochUnix != built.Epoch().Unix() {
		t.Errorf("epoch_unix = %d, want the build's save time %d", info.EpochUnix, built.Epoch().Unix())
	}
	feedInfo, err := clients["feed"].Corpus()
	if err != nil {
		t.Fatalf("Corpus (feed): %v", err)
	}
	if feedInfo.SnapshotDigest != "" {
		t.Errorf("feed-booted snapshot_digest = %q, want empty", feedInfo.SnapshotDigest)
	}
}

func TestErrorEnvelopes(t *testing.T) {
	_, ts, c := newTestServer(t, 1)
	tests := []struct {
		name       string
		path       string
		query      url.Values
		wantStatus int
		wantCode   string
	}{
		{"table5 non-integer split", "/api/table5", url.Values{"split": {"abc"}},
			http.StatusBadRequest, "bad_param"},
		{"table5 split out of range", "/api/table5", url.Values{"split": {"1"}},
			http.StatusBadRequest, "bad_param"},
		{"temporal missing os", "/api/temporal", nil,
			http.StatusBadRequest, "bad_param"},
		{"temporal unknown os", "/api/temporal", url.Values{"os": {"BeOS"}},
			http.StatusBadRequest, "bad_param"},
		{"mostshared bad n", "/api/mostshared", url.Values{"n": {"0"}},
			http.StatusBadRequest, "bad_param"},
		{"select k out of range", "/api/select", url.Values{"k": {"99"}},
			http.StatusBadRequest, "bad_param"},
		{"select bad boolean", "/api/select", url.Values{"one-per-family": {"banana"}},
			http.StatusBadRequest, "bad_param"},
		{"releases partial params", "/api/releases", url.Values{"a": {"Debian"}},
			http.StatusBadRequest, "bad_param"},
		{"attack missing os", "/api/attack", nil,
			http.StatusBadRequest, "bad_param"},
		{"attack wrong member count", "/api/attack", url.Values{"os": {"Debian", "OpenBSD"}, "f": {"1"}},
			http.StatusBadRequest, "bad_param"},
		{"sql without database", "/api/sqltable3", nil,
			http.StatusNotFound, "no_database"},
		{"unknown endpoint", "/api/frobnicate", nil,
			http.StatusNotFound, "not_found"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := c.GetRaw(tt.path, tt.query)
			var apiErr *httpapi.Error
			if !errors.As(err, &apiErr) {
				t.Fatalf("GET %s: err = %v, want *httpapi.Error", tt.path, err)
			}
			if apiErr.StatusCode != tt.wantStatus || apiErr.Code != tt.wantCode {
				t.Errorf("GET %s = (%d, %q), want (%d, %q); message: %s",
					tt.path, apiErr.StatusCode, apiErr.Code, tt.wantStatus, tt.wantCode, apiErr.Message)
			}
			if apiErr.Message == "" {
				t.Error("error envelope has empty message")
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/api/table1", "application/json", nil)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST status = %d, want 405", resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != http.MethodGet {
			t.Errorf("Allow header = %q, want GET", got)
		}
	})
}

// TestSingleflightCoalescing asserts the tentpole's coalescing claim:
// N identical cold-cache requests trigger exactly one computation and
// every caller receives byte-identical bodies.
func TestSingleflightCoalescing(t *testing.T) {
	srv, _, c := newTestServer(t, 2)

	const concurrency = 16
	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		bodies = make([][]byte, concurrency)
		errs   = make([]error, concurrency)
	)
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			bodies[i], errs[i] = c.GetRaw("/api/table3", nil)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < concurrency; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if got := srv.Computes(); got != 1 {
		t.Errorf("computes = %d, want 1 (%d identical requests must coalesce)", got, concurrency)
	}
	// A cache hit afterwards must not compute either.
	if _, err := c.GetRaw("/api/table3", nil); err != nil {
		t.Fatalf("warm Table3: %v", err)
	}
	if got := srv.Computes(); got != 1 {
		t.Errorf("computes after warm hit = %d, want still 1", got)
	}
}

// TestMostSharedStreamedBody asserts most-shared listings answer the
// canonical marshal of the same document at both tiers: cached below
// the streaming threshold, and — with the threshold lowered so the
// calibrated corpus's listings exceed it — streamed, uncached, and
// byte-identical between the server and a gateway over two shards.
func TestMostSharedStreamedBody(t *testing.T) {
	srv, _, c := newTestServer(t, 2)
	a, err := osdiversity.LoadCalibrated(osdiversity.WithParallelism(2))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	want := func(n int) []byte {
		t.Helper()
		body, err := httpapi.Marshal(server.BuildMostShared(a, server.CanonListLimit(a, n)))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return body
	}
	for _, n := range []int{1, 3, 1887, 1 << 20} {
		body, err := c.GetRaw("/api/mostshared", url.Values{"n": {strconv.Itoa(n)}})
		if err != nil {
			t.Fatalf("mostshared n=%d: %v", n, err)
		}
		if !bytes.Equal(body, want(n)) {
			t.Errorf("n=%d: cached body differs from marshal\n got: %.120s\nwant: %.120s", n, body, want(n))
		}
	}

	// Fresh tiers, so no listing is already cached.
	t.Cleanup(server.SetStreamAbove(8))
	srv, _, c = newTestServer(t, 2)
	gw, gc := newTestGateway(t, 2, nil)
	for _, n := range []int{9, 100, 1887, 1 << 20} {
		q := url.Values{"n": {strconv.Itoa(n)}}
		var bodies [2][]byte
		for i, tier := range []struct {
			c        *httpapi.Client
			computes func() int64
		}{{c, srv.Computes}, {gc, gw.Computes}} {
			before := tier.computes()
			for range 2 {
				if bodies[i], err = tier.c.GetRaw("/api/mostshared", q); err != nil {
					t.Fatalf("mostshared n=%d: %v", n, err)
				}
			}
			if got := tier.computes(); got != before+2 {
				t.Errorf("n=%d: computes %d after 2 streamed requests, want %d (streamed bodies are not cached)",
					n, got, before+2)
			}
		}
		if !bytes.Equal(bodies[0], want(n)) {
			t.Errorf("n=%d: streamed server body differs from marshal\n got: %.120s\nwant: %.120s", n, bodies[0], want(n))
		}
		if !bytes.Equal(bodies[1], bodies[0]) {
			t.Errorf("n=%d: streamed gateway body differs from the server's\n got: %.120s\nwant: %.120s", n, bodies[1], bodies[0])
		}
	}
}

// openSQLTable3 renders the SQL-path matrix over a freshly opened copy
// of the database at dbPath.
func openSQLTable3(t *testing.T, dbPath string, workers int) httpapi.SQLTable3 {
	t.Helper()
	db, err := vulndb.Open(dbPath)
	if err != nil {
		t.Fatalf("vulndb.Open: %v", err)
	}
	db.SetParallelism(workers)
	doc, err := server.BuildSQLTable3FromDB(db)
	if err != nil {
		t.Fatalf("BuildSQLTable3FromDB: %v", err)
	}
	return doc
}

// TestSQLTable3Endpoint proves the SQL path serves through the resident
// server and matches a freshly opened database, at workers 1 and 4.
func TestSQLTable3Endpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates feeds and imports a database")
	}
	dir := t.TempDir()
	feeds, err := osdiversity.GenerateFeeds(filepath.Join(dir, "feeds"), osdiversity.WithParallelism(4))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	dbPath := filepath.Join(dir, "study.db")
	if _, _, err := osdiversity.ImportFeeds(dbPath, feeds, osdiversity.WithParallelism(4)); err != nil {
		t.Fatalf("ImportFeeds: %v", err)
	}

	bodies := make(map[int][]byte)
	for _, workers := range []int{1, 4} {
		a, err := osdiversity.LoadDatabase(dbPath, osdiversity.WithParallelism(workers))
		if err != nil {
			t.Fatalf("LoadDatabase: %v", err)
		}
		srv := server.New(a, server.Config{
			Source: "db:" + dbPath, Engine: "bitset", Workers: workers, DBPath: dbPath,
		})
		ts := httptest.NewServer(srv.Handler())
		c := httpapi.NewClient(ts.URL)
		c.HTTP = ts.Client()

		info, err := c.Corpus()
		if err != nil {
			t.Fatalf("Corpus: %v", err)
		}
		if !info.SQL {
			t.Error("corpus sql = false with a database configured")
		}
		body, err := c.GetRaw("/api/sqltable3", nil)
		if err != nil {
			t.Fatalf("sqltable3 (workers %d): %v", workers, err)
		}
		bodies[workers] = body
		ts.Close()

		wantBody, err := httpapi.Marshal(openSQLTable3(t, dbPath, workers))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if !bytes.Equal(body, wantBody) {
			t.Errorf("workers-%d sqltable3 body differs from facade output", workers)
		}
	}
	if !bytes.Equal(bodies[1], bodies[4]) {
		t.Error("sqltable3 bodies differ between workers 1 and 4")
	}

	// The SQL matrix must agree with the Study's Table III All column.
	sql := openSQLTable3(t, dbPath, 2)
	a, err := osdiversity.LoadDatabase(dbPath, osdiversity.WithParallelism(2))
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	study := map[string]int{}
	for _, row := range a.PairwiseOverlaps() {
		study[row.A+"|"+row.B] = row.All
	}
	if len(sql.Cells) != len(study) {
		t.Fatalf("sql cells = %d, study pairs = %d", len(sql.Cells), len(study))
	}
	for _, cell := range sql.Cells {
		if want, ok := study[cell.A+"|"+cell.B]; !ok || cell.Shared != want {
			t.Errorf("pair %s-%s: sql %d, study %d", cell.A, cell.B, cell.Shared, want)
		}
	}
}
