package server_test

import (
	"bytes"
	"fmt"
	"net/url"
	"testing"

	"osdiversity/internal/httpapi"
	"osdiversity/internal/server"
)

// TestCanonicalKeyCoalescing asserts the ROADMAP canonicalization item:
// requests whose parameters differ only cosmetically (explicit defaults,
// number spellings, out-of-range years that clamp to the same table,
// limits beyond the corpus size) resolve to one cache key — each group
// costs exactly one computation and every variant receives
// byte-identical bodies.
func TestCanonicalKeyCoalescing(t *testing.T) {
	srv, _, c := newTestServer(t, 2)
	a, err := c.Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	lo, hi := a.YearFrom, a.YearTo
	if lo == 0 || hi <= lo {
		t.Fatalf("corpus year range [%d, %d] unusable", lo, hi)
	}

	groups := []struct {
		name     string
		path     string
		variants []url.Values
	}{
		{"table5 default vs explicit vs spellings", "/api/table5", []url.Values{
			nil,
			{"split": {"2005"}},
			{"split": {"+2005"}},
			{"split": {"02005"}},
		}},
		{"table5 beyond-range years clamp together", "/api/table5", []url.Values{
			{"split": {fmt.Sprint(hi)}},
			{"split": {fmt.Sprint(hi + 1)}},
			{"split": {"2100"}},
		}},
		{"table5 pre-history years clamp together", "/api/table5", []url.Values{
			{"split": {fmt.Sprint(lo - 1)}},
			{"split": {fmt.Sprint(lo - 40)}},
		}},
		{"select default vs explicit defaults", "/api/select", []url.Values{
			nil,
			{"k": {"4"}, "one-per-family": {"false"}, "to": {"2005"}, "top": {"0"}},
			{"one-per-family": {"0"}},
			{"to": {"+2005"}},
		}},
		{"select beyond-range end years clamp together", "/api/select", []url.Values{
			{"to": {fmt.Sprint(hi)}},
			{"to": {"2100"}},
		}},
		{"mostshared default vs spellings", "/api/mostshared", []url.Values{
			nil,
			{"n": {"3"}},
			{"n": {"03"}},
		}},
		{"mostshared full-listing limits clamp together", "/api/mostshared", []url.Values{
			{"n": {fmt.Sprint(a.ValidEntries)}},
			{"n": {fmt.Sprint(a.ValidEntries + 1)}},
			{"n": {"999999999"}},
		}},
		{"attack default vs explicit name and trials", "/api/attack", []url.Values{
			{"os": {"Windows2003", "Solaris", "Debian", "OpenBSD"}, "f": {"1"}, "trials": {"20"}},
			{"os": {"Windows2003", "Solaris", "Debian", "OpenBSD"}, "f": {"01"}, "trials": {"+20"},
				"name": {"configuration"}},
		}},
	}

	before := srv.Computes()
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			coalesces(t, c, g.path, g.variants, srv.Computes, before)
			before = srv.Computes()
		})
	}

	// The gateway canonicalizes the same way against the merged corpus:
	// each group of a merged endpoint costs one scatter-and-merge.
	gw, gc := newTestGateway(t, 2, nil)
	merged := map[string]bool{}
	for _, r := range server.Routes() {
		merged[r.Path] = r.Merged
	}
	before = gw.Computes()
	for _, g := range groups {
		if !merged[g.path] {
			continue
		}
		t.Run("gateway/"+g.name, func(t *testing.T) {
			coalesces(t, gc, g.path, g.variants, gw.Computes, before)
			before = gw.Computes()
		})
	}
}

// coalesces requests every variant through c and asserts they answer
// identical bytes for exactly one computation past before.
func coalesces(t *testing.T, c *httpapi.Client, path string, variants []url.Values, computes func() int64, before int64) {
	t.Helper()
	var first []byte
	for i, q := range variants {
		body, err := c.GetRaw(path, q)
		if err != nil {
			t.Fatalf("variant %d (%v): %v", i, q, err)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("variant %d (%v) body differs from variant 0", i, q)
		}
	}
	if got := computes(); got != before+1 {
		t.Errorf("computes = %d after group, want %d (one per canonical key)", got, before+1)
	}
}
