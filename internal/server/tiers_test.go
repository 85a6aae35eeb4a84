package server_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"

	"osdiversity"
	"osdiversity/internal/classify"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/gather"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// newTestGateway boots n year-shard servers over the calibrated corpus
// — shard i with dbs[i] resident when dbs is non-nil — and a gateway
// over them, and returns the gateway with a client for it.
func newTestGateway(t testing.TB, n int, dbs []*vulndb.DB) (*gather.Gateway, *httpapi.Client) {
	t.Helper()
	backends := make([]string, n)
	for i := range backends {
		a, err := osdiversity.LoadCalibrated(osdiversity.WithYearShard(i+1, n))
		if err != nil {
			t.Fatalf("LoadCalibrated shard %d/%d: %v", i+1, n, err)
		}
		srv := server.New(a, server.Config{Workers: 1, Shard: fmt.Sprintf("%d/%d", i+1, n)})
		if dbs != nil {
			srv.SetDatabase(dbs[i])
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		backends[i] = ts.URL
	}
	gw, err := gather.New(gather.Config{Backends: backends, RevalidateAfter: -1})
	if err != nil {
		t.Fatalf("gather.New: %v", err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	c := httpapi.NewClient(ts.URL)
	c.HTTP = ts.Client()
	return gw, c
}

// shardDatabases imports the calibrated entries, in canonical feed
// order, into one full database and n year-shard databases, so the
// concatenated shard scans reproduce the full scan.
func shardDatabases(t testing.TB, n int) (*vulndb.DB, []*vulndb.DB) {
	t.Helper()
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	var ordered []*cve.Entry
	for _, g := range corpus.SplitByYear(c.Entries) {
		ordered = append(ordered, g.Entries...)
	}
	build := func(entries []*cve.Entry) *vulndb.DB {
		db, err := vulndb.Create()
		if err != nil {
			t.Fatalf("vulndb.Create: %v", err)
		}
		if _, _, err := db.LoadEntries(entries, classify.NewClassifier()); err != nil {
			t.Fatalf("LoadEntries: %v", err)
		}
		return db
	}
	shards := make([]*vulndb.DB, n)
	for i := range shards {
		shards[i] = build(corpus.ShardByYear(ordered, i, n))
	}
	return build(ordered), shards
}

// TestQueryStreamedAcrossTiers lowers the streaming threshold so a
// modest /api/query result streams at both tiers: the server's and the
// gateway's bytes equal the canonical marshal, and neither caches them.
func TestQueryStreamedAcrossTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("imports the corpus into multiple databases")
	}
	t.Cleanup(server.SetStreamAbove(8))
	full, shards := shardDatabases(t, 2)
	srv, _, c := newTestServer(t, 1)
	srv.SetDatabase(full)
	gw, gc := newTestGateway(t, 2, shards)

	const sql = `SELECT name, year FROM vulnerability WHERE year < 1997`
	res, err := full.Store().Query(sql)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Rows) <= 8 {
		t.Fatalf("fixture query returns %d rows, want more than the lowered threshold", len(res.Rows))
	}
	want, err := httpapi.Marshal(server.BuildQueryResult(res))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, tier := range []struct {
		name     string
		c        *httpapi.Client
		computes func() int64
	}{{"server", c, srv.Computes}, {"gateway", gc, gw.Computes}} {
		before := tier.computes()
		for i := 0; i < 2; i++ {
			body, err := tier.c.PostJSON("/api/query", httpapi.QueryRequest{SQL: sql})
			if err != nil {
				t.Fatalf("%s query %d: %v", tier.name, i, err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s streamed body %d differs from marshal\n got: %.200s\nwant: %.200s", tier.name, i, body, want)
			}
		}
		if got := tier.computes(); got != before+2 {
			t.Errorf("%s computes after 2 streamed queries = %d, want %d (streamed bodies are not cached)",
				tier.name, got, before+2)
		}
	}
}
