package server

import (
	"bytes"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"osdiversity"
	"osdiversity/internal/httpapi"
)

// panickyShards is a one-backend shard set whose first scatter panics
// and whose later scatters answer Table I of a.
type panickyShards struct {
	a        *osdiversity.Analysis
	scatters int
}

func (v *panickyShards) Epochs() string           { return "1" }
func (v *panickyShards) Gen() uint64              { return 1 }
func (v *panickyShards) Bounds() (Bounds, *Error) { return analysisBounds(v.a), nil }
func (v *panickyShards) Scatter(path string, _ url.Values, _ any) ([]Leg, *Error) {
	if v.scatters++; v.scatters == 1 {
		panic("boom")
	}
	body, err := httpapi.Marshal(BuildTable1(v.a))
	if err != nil {
		panic(err)
	}
	return []Leg{{Backend: "fake", Path: path, Body: body}}, nil
}

// TestPanickingBuildDoesNotWedgeKey asserts a panic inside a build
// surfaces as a 500 envelope and leaves the singleflight key usable —
// a wedged key would block every later request for that endpoint — on
// both tiers: the server's build and the gateway's scatter.
func TestPanickingBuildDoesNotWedgeKey(t *testing.T) {
	a, err := osdiversity.LoadCalibrated()
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	s := New(a, Config{Workers: 1})
	ep, ok := s.epochs.Current()
	if !ok {
		t.Fatal("New left no epoch resident")
	}

	rec := httptest.NewRecorder()
	s.respond(rec, ep, "panicky", func() (any, *Error) {
		panic("boom")
	})
	if rec.Code != 500 || !strings.Contains(rec.Body.String(), `"internal_panic"`) {
		t.Fatalf("panicking build answered %d %q, want 500 internal_panic envelope",
			rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.respond(rec, ep, "panicky", func() (any, *Error) {
		return httpapi.Health{Status: "recovered"}, nil
	})
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "recovered") {
		t.Fatalf("key wedged after panic: second respond answered %d %q",
			rec.Code, rec.Body.String())
	}

	shards := &panickyShards{a: a}
	gw := GatewayHandler(func() (Vector, *Error) { return shards, nil },
		NewResponder(1, time.Second), nil)
	rec = httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", "/api/table1", nil))
	if rec.Code != 500 || !strings.Contains(rec.Body.String(), `"internal_panic"`) {
		t.Fatalf("panicking gateway scatter answered %d %q, want 500 internal_panic envelope",
			rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", "/api/table1", nil))
	want, err := httpapi.Marshal(BuildTable1(a))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("gateway key wedged after panic: second request answered %d %.120q",
			rec.Code, rec.Body.String())
	}
}

// TestStreamMatchesMarshal pins the streaming encoder to the canonical
// compact encoding, including the empty-array edge the nil-slice
// convention exists for.
func TestStreamMatchesMarshal(t *testing.T) {
	docs := []any{
		httpapi.MostShared{N: 0, IDs: []string{}},
		httpapi.MostShared{N: 1, IDs: []string{"CVE-2008-4609"}},
		httpapi.MostShared{N: 3, IDs: []string{"CVE-2008-4609", "CVE-2007-5365", "CVE-2008-1447"}},
		httpapi.MostShared{N: 2, IDs: []string{`quote"inside`, "uniécode"}},
		httpapi.MostSharedPartial{N: 0, Entries: []httpapi.SharedProduct{}},
		httpapi.MostSharedPartial{N: 2, Entries: []httpapi.SharedProduct{
			{ID: "CVE-2008-4609", Products: 9}, {ID: `<&>`, Products: 1}}},
	}
	for _, doc := range docs {
		want, err := httpapi.Marshal(doc)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		_, stream := httpapi.Streamer(doc)
		var buf bytes.Buffer
		if err := stream(&buf); err != nil {
			t.Fatalf("stream: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("streamed %q differs from marshal %q", buf.Bytes(), want)
		}
	}
}
