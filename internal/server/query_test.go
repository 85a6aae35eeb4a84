package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/relstore"
	"osdiversity/internal/vulndb"
)

// queryFixture imports the calibrated corpus into a database and boots
// a server over it, /api/query enabled.
type queryFixture struct {
	dbPath string
	srv    *Server
	ts     *httptest.Server
	c      *httpapi.Client
}

func makeQueryFixture(t *testing.T, workers int) *queryFixture {
	t.Helper()
	dir := t.TempDir()
	feeds, err := osdiversity.GenerateFeeds(filepath.Join(dir, "feeds"), osdiversity.WithParallelism(workers))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	dbPath := filepath.Join(dir, "study.db")
	if _, _, err := osdiversity.ImportFeeds(dbPath, feeds, osdiversity.WithParallelism(workers)); err != nil {
		t.Fatalf("ImportFeeds: %v", err)
	}
	a, err := osdiversity.LoadDatabase(dbPath, osdiversity.WithParallelism(workers))
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	srv := New(a, Config{Source: "db:" + dbPath, Engine: "bitset", Workers: workers, DBPath: dbPath})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := httpapi.NewClient(ts.URL)
	c.HTTP = ts.Client()
	return &queryFixture{dbPath: dbPath, srv: srv, ts: ts, c: c}
}

// wantQueryBody computes the canonical /api/query bytes for a statement
// by running it on a fresh database handle outside the server.
func wantQueryBody(t *testing.T, dbPath, sql string, args ...relstore.Value) []byte {
	t.Helper()
	db, err := vulndb.Open(dbPath)
	if err != nil {
		t.Fatalf("vulndb.Open: %v", err)
	}
	res, err := db.Store().Query(sql, args...)
	if err != nil {
		t.Fatalf("fresh query: %v", err)
	}
	body, err := httpapi.Marshal(BuildQueryResult(res))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return body
}

// TestQueryEndpoint is the tentpole's serving proof: ad-hoc and
// parameterized SELECTs answer the canonical document bytes, identical
// requests cache (one compute), and the plan cache surfaces on /corpus.
func TestQueryEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates feeds and imports a database")
	}
	fx := makeQueryFixture(t, 2)

	t.Run("ad-hoc select", func(t *testing.T) {
		const sql = `SELECT name, family FROM os ORDER BY name`
		body, err := fx.c.PostJSON("/api/query", httpapi.QueryRequest{SQL: sql})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if want := wantQueryBody(t, fx.dbPath, sql); !bytes.Equal(body, want) {
			t.Errorf("body differs from canonical document\n got: %.200s\nwant: %.200s", body, want)
		}
	})

	t.Run("parameterized", func(t *testing.T) {
		const sql = `SELECT os.name, COUNT(DISTINCT os_vuln.vuln_id) FROM os
			JOIN os_vuln ON os.id = os_vuln.os_id
			WHERE os.family = ? GROUP BY os.name ORDER BY os.name`
		body, err := fx.c.PostJSON("/api/query", httpapi.QueryRequest{SQL: sql, Args: []any{"BSD"}})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		want := wantQueryBody(t, fx.dbPath, sql, relstore.Text("BSD"))
		if !bytes.Equal(body, want) {
			t.Errorf("body differs from canonical document\n got: %.200s\nwant: %.200s", body, want)
		}
		res, err := fx.c.Query(sql, "BSD")
		if err != nil {
			t.Fatalf("client Query: %v", err)
		}
		if res.N == 0 || len(res.Rows) != res.N {
			t.Errorf("decoded result n=%d rows=%d, want consistent non-empty", res.N, len(res.Rows))
		}
	})

	t.Run("typed args round-trip", func(t *testing.T) {
		const sql = `SELECT name FROM vulnerability WHERE year = ? ORDER BY name LIMIT 5`
		body, err := fx.c.PostJSON("/api/query", httpapi.QueryRequest{SQL: sql, Args: []any{2003}})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		want := wantQueryBody(t, fx.dbPath, sql, relstore.Int(2003))
		if !bytes.Equal(body, want) {
			t.Errorf("integer arg bound differently from relstore.Int\n got: %.200s\nwant: %.200s", body, want)
		}
	})

	t.Run("identical requests cache", func(t *testing.T) {
		const sql = `SELECT COUNT(*) FROM os_vuln WHERE os_id = ?`
		before := fx.srv.Computes()
		for i := 0; i < 3; i++ {
			if _, err := fx.c.Query(sql, 1); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
		if got := fx.srv.Computes(); got != before+1 {
			t.Errorf("computes after 3 identical queries = %d, want %d", got, before+1)
		}
		// A different argument is a different response: one more compute,
		// but the same plan (the shape normalizes identically).
		if _, err := fx.c.Query(sql, 2); err != nil {
			t.Fatalf("query with new arg: %v", err)
		}
		if got := fx.srv.Computes(); got != before+2 {
			t.Errorf("computes after distinct-arg query = %d, want %d", got, before+2)
		}
	})

	t.Run("plan cache on corpus", func(t *testing.T) {
		info, err := fx.c.Corpus()
		if err != nil {
			t.Fatalf("Corpus: %v", err)
		}
		pc := info.PlanCache
		if pc == nil {
			t.Fatal("corpus plan_cache missing after queries ran")
		}
		if pc.Size == 0 || pc.Misses == 0 {
			t.Errorf("plan_cache = %+v, want non-empty cache with recorded misses", pc)
		}
		if pc.Capacity <= 0 {
			t.Errorf("plan_cache capacity = %d, want positive", pc.Capacity)
		}
	})
}

// TestQueryRejectsNonSelect is the satellite contract: every non-SELECT
// statement answers 400 unsupported_statement without touching the
// engine, and the other request defects map to their typed envelopes.
func TestQueryRejectsNonSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("generates feeds and imports a database")
	}
	fx := makeQueryFixture(t, 1)

	post := func(t *testing.T, body string) (int, []byte) {
		t.Helper()
		resp, err := fx.ts.Client().Post(fx.ts.URL+"/api/query", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		return resp.StatusCode, raw
	}

	for _, tt := range []struct {
		name     string
		body     string
		wantCode string
	}{
		{"update", `{"sql":"UPDATE os SET family = 'x' WHERE id = 1"}`, "unsupported_statement"},
		{"delete", `{"sql":"DELETE FROM os_vuln WHERE os_id = 1"}`, "unsupported_statement"},
		{"drop", `{"sql":"DROP TABLE os"}`, "unsupported_statement"},
		{"insert", `{"sql":"INSERT INTO os (id, name, family, first_release) VALUES (99, 'x', 'y', 2000)"}`, "unsupported_statement"},
		{"create table", `{"sql":"CREATE TABLE scratch (id INTEGER)"}`, "unsupported_statement"},
		{"malformed sql", `{"sql":"SELEKT oops"}`, "bad_query"},
		{"empty sql", `{"sql":"  "}`, "bad_query"},
		{"unknown column", `{"sql":"SELECT nonexistent FROM os"}`, "bad_query"},
		{"not json", `{"sql":`, "bad_body"},
		{"unbindable arg", `{"sql":"SELECT name FROM os WHERE id = ?","args":[{"nested":1}]}`, "bad_param"},
		{"missing placeholder arg", `{"sql":"SELECT name FROM os WHERE id = ?"}`, "bad_query"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			status, raw := post(t, tt.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d %q, want 400", status, raw)
			}
			var env httpapi.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("error envelope: %v (%q)", err, raw)
			}
			if env.Error.Code != tt.wantCode {
				t.Errorf("code = %q, want %q (message: %s)", env.Error.Code, tt.wantCode, env.Error.Message)
			}
		})
	}

	// A rejected write must not have touched the store: the os table
	// still answers.
	res, err := fx.c.Query(`SELECT COUNT(*) FROM os`)
	if err != nil {
		t.Fatalf("post-rejection query: %v", err)
	}
	if res.N != 1 {
		t.Errorf("os count rows = %d, want 1", res.N)
	}

	// GET on the query endpoint: 405 with Allow: POST.
	resp, err := fx.ts.Client().Get(fx.ts.URL + "/api/query")
	if err != nil {
		t.Fatalf("GET /api/query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /api/query = %d Allow %q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestQueryWithoutDatabase asserts the 404 gate of a server booted
// without -db.
func TestQueryWithoutDatabase(t *testing.T) {
	a, err := osdiversity.LoadCalibrated()
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	s := New(a, Config{Source: "calibrated", Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := httpapi.NewClient(ts.URL)
	c.HTTP = ts.Client()

	_, err = c.Query(`SELECT name FROM os`)
	he, ok := err.(*httpapi.Error)
	if !ok || he.StatusCode != http.StatusNotFound || he.Code != "no_database" {
		t.Fatalf("query without db: %v, want 404 no_database", err)
	}
	info, err := c.Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	if info.PlanCache != nil {
		t.Errorf("corpus plan_cache = %+v, want absent without a database", info.PlanCache)
	}
}

// TestQueryStreamedBody lowers the streaming threshold so a modest
// result takes the streamed path, and asserts the streamed bytes equal
// the canonical marshal — and that streamed bodies bypass the response
// cache (each request computes).
func TestQueryStreamedBody(t *testing.T) {
	if testing.Short() {
		t.Skip("generates feeds and imports a database")
	}
	t.Cleanup(SetStreamAbove(8))

	fx := makeQueryFixture(t, 2)
	const sql = `SELECT name, year FROM vulnerability ORDER BY name LIMIT 50`
	want := wantQueryBody(t, fx.dbPath, sql)

	before := fx.srv.Computes()
	for i := 0; i < 2; i++ {
		body, err := fx.c.PostJSON("/api/query", httpapi.QueryRequest{SQL: sql})
		if err != nil {
			t.Fatalf("streamed query %d: %v", i, err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("streamed body %d differs from marshal\n got: %.200s\nwant: %.200s", i, body, want)
		}
	}
	if got := fx.srv.Computes(); got != before+2 {
		t.Errorf("computes after 2 streamed queries = %d, want %d (streamed bodies are not cached)", got, before+2)
	}

	// A small result on the same server still caches.
	const small = `SELECT name FROM os ORDER BY name LIMIT 3`
	before = fx.srv.Computes()
	for i := 0; i < 2; i++ {
		if _, err := fx.c.PostJSON("/api/query", httpapi.QueryRequest{SQL: small}); err != nil {
			t.Fatalf("small query %d: %v", i, err)
		}
	}
	if got := fx.srv.Computes(); got != before+1 {
		t.Errorf("computes after 2 small queries = %d, want %d", got, before+1)
	}
}

// TestStreamQueryResultMatchesMarshal pins the streamed encoder to the
// canonical encoding across every cell kind the wire format carries.
func TestStreamQueryResultMatchesMarshal(t *testing.T) {
	ts, err := time.Parse(time.RFC3339, "2004-07-01T10:30:00Z")
	if err != nil {
		t.Fatal(err)
	}
	docs := []httpapi.QueryResult{
		{Columns: []string{}, N: 0, Rows: [][]any{}},
		{Columns: []string{"a"}, N: 1, Rows: [][]any{{int64(1)}}},
		{Columns: []string{"n", "f", "s", "b", "t", "z"}, N: 2, Rows: [][]any{
			{int64(-7), 2.5, "x\"y", true, ts.Format(time.RFC3339), nil},
			{int64(0), 0.25, "", false, ts.Format(time.RFC3339), nil},
		}},
	}
	for i, doc := range docs {
		want, err := httpapi.Marshal(doc)
		if err != nil {
			t.Fatalf("doc %d: marshal: %v", i, err)
		}
		var buf bytes.Buffer
		_, stream := httpapi.Streamer(&doc)
		if err := stream(&buf); err != nil {
			t.Fatalf("doc %d: stream: %v", i, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("doc %d: streamed %q, marshal %q", i, buf.Bytes(), want)
		}
	}
}

// TestQueryArgsFromJSON pins the wire-to-engine value mapping.
func TestQueryArgsFromJSON(t *testing.T) {
	vals, err := QueryArgsFromJSON([]any{
		json.Number("42"), json.Number("2.5"), json.Number("1e3"),
		"text", true, nil, float64(7), float64(7.5),
	})
	if err != nil {
		t.Fatalf("QueryArgsFromJSON: %v", err)
	}
	want := []relstore.Value{
		relstore.Int(42), relstore.Float(2.5), relstore.Float(1000),
		relstore.Text("text"), relstore.Bool(true), relstore.Null(),
		relstore.Int(7), relstore.Float(7.5),
	}
	if len(vals) != len(want) {
		t.Fatalf("got %d values, want %d", len(vals), len(want))
	}
	for i := range want {
		// SQL NULL never equals NULL; compare kinds first.
		if vals[i].Kind() != want[i].Kind() || (!vals[i].IsNull() && !vals[i].Equal(want[i])) {
			t.Errorf("arg %d = %v, want %v", i, vals[i], want[i])
		}
	}
	if _, err := QueryArgsFromJSON([]any{[]any{1, 2}}); err == nil {
		t.Error("array argument bound, want error")
	}
	if _, err := QueryArgsFromJSON([]any{map[string]any{"k": 1}}); err == nil {
		t.Error("object argument bound, want error")
	}
}
