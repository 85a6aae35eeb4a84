package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"osdiversity"
	"osdiversity/internal/corpus"
)

// testEntries keeps the corpus small enough for a unit test; the
// harness logic does not depend on the corpus size.
const testEntries = 3000

// sentRequests renders a plan as the requests the servers would see.
func sentRequests(p plan) []string {
	var out []string
	for _, seq := range append([][]int32{p.warm, p.warmSched, p.sched}, p.conns...) {
		for _, k := range seq {
			r := p.keys[k]
			out = append(out, r.method+" "+r.target+" "+string(r.body))
		}
	}
	return out
}

// feedBytes writes the delta feeds of seed and returns their bytes.
func feedBytes(t *testing.T, seed uint64) [2][]byte {
	t.Helper()
	spec := osdiversity.SyntheticSpec{Entries: testEntries, Distros: corpusDistros, Seed: seed, FromYear: corpusFrom, ToYear: corpusTo}
	base, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
		Entries: testEntries, Distros: corpusDistros, Seed: seed, FromYear: corpusFrom, ToYear: corpusTo,
	})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := deltaFeeds(t.TempDir(), spec, base.Entries)
	if err != nil {
		t.Fatal(err)
	}
	var out [2][]byte
	for i, p := range paths {
		if out[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestSeedDerivesEveryInput(t *testing.T) {
	u := newUniverse(corpusDistros, corpusFrom, corpusTo)
	for name, wl := range workloads {
		a := sentRequests(makePlan(wl, 1, u, 500, 100, wl.rate == 0))
		b := sentRequests(makePlan(wl, 1, u, 500, 100, wl.rate == 0))
		c := sentRequests(makePlan(wl, 2, u, 500, 100, wl.rate == 0))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 drew two different request sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 drew the same request sequence", name)
		}
	}
	a, b, c := feedBytes(t, 1), feedBytes(t, 1), feedBytes(t, 2)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("delta feed %d: seed 1 wrote different bytes twice", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("delta feed %d: seeds 1 and 2 wrote the same bytes", i)
		}
	}
	if bytes.Equal(a[0], a[1]) {
		t.Error("the two delta feeds are identical, so alternate reloads would be no-ops")
	}
}

// runSmall runs cold-mix-reload, the workload with every reference
// state (boot epoch, both delta epochs, the sql store), for one second
// over a small corpus.
func runSmall(t *testing.T, corrupt func(int32, []byte) []byte) *report {
	t.Helper()
	dir := t.TempDir()
	rep, err := execute(config{
		wl: workloads["cold-mix-reload"], seed: 7, seconds: 1, entries: testEntries,
		dir: dir, spanFile: filepath.Join(dir, "spans.jsonl"), corrupt: corrupt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestByteCheckPassesAndCatchesCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving system twice")
	}
	rep := runSmall(t, nil)
	if !rep.correct() || rep.check.mismatches != 0 || rep.stats.failed != 0 {
		t.Fatalf("clean run: correct=%t mismatches=%d failed=%d", rep.correct(), rep.check.mismatches, rep.stats.failed)
	}
	if len(rep.reloads) != phaseReloads {
		t.Errorf("clean run reloaded %d times, want %d", len(rep.reloads), phaseReloads)
	}

	// Flip one byte of every reference: each checked response must now
	// fail the check and count as a failed request.
	rep = runSmall(t, func(key int32, body []byte) []byte {
		out := append([]byte(nil), body...)
		out[0] ^= 0xff
		return out
	})
	if rep.correct() || rep.check.mismatches == 0 {
		t.Fatalf("corrupted reference went unnoticed: correct=%t mismatches=%d", rep.correct(), rep.check.mismatches)
	}
	if _, failed := rep.counts(); failed < rep.check.mismatches {
		t.Errorf("failed = %d, want at least the %d mismatches", failed, rep.check.mismatches)
	}
}

func TestCoveredAndLinking(t *testing.T) {
	if got := covered(0, 100, [][2]int64{{10, 30}, {20, 40}, {90, 120}, {50, 60}}); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	spans := []span{
		{layer: layerGather, start: 0, end: 100, req: 1, path: "/api/select"},
		{layer: layerGather, start: 5, end: 100, req: 2, path: "/api/table5"},
		{layer: layerLeg, start: 10, end: 20, path: "/api/partial/select"}, // only the select request fetches it
		{layer: layerProbe, start: 10, end: 20, path: "/readyz"},           // either request could have probed
		{layer: layerShard, shard: 0, start: 12, end: 18, path: "/api/partial/select"},
	}
	parent := linkSpans(spans)
	if want := []int{-1, -1, 0, -1, 2}; !reflect.DeepEqual(parent, want) {
		t.Errorf("parents = %v, want %v", parent, want)
	}
}
