package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
BenchmarkTable3PairwiseOverlap-2    	       1	    500000 ns/op
BenchmarkTotals100kBitset-2         	       1	   3000000 ns/op
BenchmarkKWise100kBitset-2          	       1	    300000 ns/op
BenchmarkJoinNaive-2                	       1	  80000000 ns/op
BenchmarkJoinPlanned-2              	       1	   2000000 ns/op
PASS
`

func TestParseBenchStripsCPUSuffix(t *testing.T) {
	samples, err := parseBench(strings.NewReader(benchOutput), io.Discard)
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	if got := len(samples.ns); got != 5 {
		t.Fatalf("parsed %d benchmarks, want 5 (%v)", got, samples.ns)
	}
	if ns := samples.ns["BenchmarkTotals100kBitset"]; len(ns) != 1 || ns[0] != 3000000 {
		t.Errorf("BenchmarkTotals100kBitset samples = %v, want [3000000]", ns)
	}
}

// TestParseBenchRecordsMemory: lines with -benchmem's fields, custom
// metrics between ns/op and B/op included, record B/op and allocs/op
// medians; a summary without them writes neither map.
func TestParseBenchRecordsMemory(t *testing.T) {
	const out = `BenchmarkQuery/shape-2   	       5	  12000 ns/op	  78.45 rows/query	  2308193 B/op	    6026 allocs/op
BenchmarkQuery/shape-2   	       5	  11000 ns/op	  78.45 rows/query	  2308190 B/op	    6025 allocs/op
BenchmarkQuery/shape-2   	       5	  13000 ns/op	  78.45 rows/query	  2308199 B/op	    6027 allocs/op
BenchmarkPlain-2         	       1	 500000 ns/op
`
	s, err := parseBench(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	doc := buildSummary(s)
	if got := doc.NsPerOp["BenchmarkQuery/shape"]; got != 12000 {
		t.Errorf("ns/op median = %v, want 12000", got)
	}
	if got := doc.BytesPerOp["BenchmarkQuery/shape"]; got != 2308193 {
		t.Errorf("B/op median = %v, want 2308193", got)
	}
	if got := doc.AllocsPerOp["BenchmarkQuery/shape"]; got != 6026 {
		t.Errorf("allocs/op median = %v, want 6026", got)
	}
	if _, ok := doc.AllocsPerOp["BenchmarkPlain"]; ok {
		t.Error("a line without -benchmem fields recorded allocs/op")
	}
	plain, err := parseBench(strings.NewReader(benchOutput), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(buildSummary(plain))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "bytes_per_op") || strings.Contains(string(enc), "allocs_per_op") {
		t.Errorf("summary without -benchmem lines writes memory maps: %s", enc)
	}
}

func TestBuildSummaryMedianAndSpeedups(t *testing.T) {
	doc := buildSummary(samples{ns: map[string][]float64{
		"BenchmarkTotals100kBitset":      {3000000, 1000000, 2000000},
		"BenchmarkJoinNaive":             {80000000},
		"BenchmarkJoinPlanned":           {2000000},
		"BenchmarkWarmStart100kFeed":     {5000000000},
		"BenchmarkWarmStart100kSnapshot": {10000000},
	}})
	if got := doc.NsPerOp["BenchmarkTotals100kBitset"]; got != 2000000 {
		t.Errorf("median = %v, want 2000000", got)
	}
	if got := doc.PlanSpeedups["BenchmarkJoin"]; got != 40 {
		t.Errorf("naive/planned speedup = %v, want 40", got)
	}
	if got := doc.WarmSpeedups["BenchmarkWarmStart100k"]; got != 500 {
		t.Errorf("feed/snapshot speedup = %v, want 500", got)
	}
}

func TestCompareSummariesGate(t *testing.T) {
	old := map[string]float64{
		"BenchmarkStable":    1_000_000, // within tolerance
		"BenchmarkRegressed": 1_000_000, // +50% > 35% tolerance
		"BenchmarkImproved":  1_000_000, // faster is never flagged
		"BenchmarkNoisy":     50_000,    // under the 100k floor: skipped
		"BenchmarkRetired":   1_000_000, // gone from the new run: ignored
	}
	fresh := map[string]float64{
		"BenchmarkStable":    1_300_000,
		"BenchmarkRegressed": 1_500_000,
		"BenchmarkImproved":  200_000,
		"BenchmarkNoisy":     500_000,
		"BenchmarkBrandNew":  9_000_000, // only in the new run: ignored
	}
	rep := compareSummaries(old, fresh, 0.35, 100_000)
	if rep.compared != 3 {
		t.Errorf("compared = %d, want 3", rep.compared)
	}
	if rep.underFloor != 1 {
		t.Errorf("underFloor = %d, want 1", rep.underFloor)
	}
	if rep.unmatched != 2 {
		t.Errorf("unmatched = %d, want 2 (one retired, one new)", rep.unmatched)
	}
	if len(rep.regressions) != 1 || rep.regressions[0].name != "BenchmarkRegressed" {
		t.Fatalf("regressions = %+v, want exactly BenchmarkRegressed", rep.regressions)
	}
	if r := rep.regressions[0]; r.oldNs != 1_000_000 || r.newNs != 1_500_000 {
		t.Errorf("regression ns = %v -> %v, want 1000000 -> 1500000", r.oldNs, r.newNs)
	}
}

func TestCompareSummariesExactTolerancePasses(t *testing.T) {
	old := map[string]float64{"BenchmarkEdge": 1_000_000}
	fresh := map[string]float64{"BenchmarkEdge": 1_350_000}
	if rep := compareSummaries(old, fresh, 0.35, 0); len(rep.regressions) != 0 {
		t.Fatalf("exactly-at-tolerance flagged as regression: %+v", rep.regressions)
	}
}

func TestTrendSeriesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")

	// A missing series bootstraps silently.
	history, err := readTrend(path)
	if err != nil || history != nil {
		t.Fatalf("readTrend(missing) = %v, %v; want empty, nil", history, err)
	}

	runs := []map[string]float64{
		{"BenchmarkA": 2_000_000, "BenchmarkB": 900_000},
		{"BenchmarkA": 1_000_000, "BenchmarkB": 1_100_000},
		{"BenchmarkA": 1_500_000},
	}
	for _, run := range runs {
		if err := appendTrend(path, run); err != nil {
			t.Fatalf("appendTrend: %v", err)
		}
	}
	history, err = readTrend(path)
	if err != nil {
		t.Fatalf("readTrend: %v", err)
	}
	if len(history) != 3 {
		t.Fatalf("series length = %d, want 3", len(history))
	}
	best := trendBest(history)
	if best["BenchmarkA"] != 1_000_000 || best["BenchmarkB"] != 900_000 {
		t.Errorf("trendBest = %v, want per-benchmark minima", best)
	}
}

func TestTrendGateAgainstBest(t *testing.T) {
	history := []trendEntry{
		{NsPerOp: map[string]float64{"BenchmarkA": 1_000_000, "BenchmarkB": 1_000_000}},
		{NsPerOp: map[string]float64{"BenchmarkA": 3_000_000}},
	}
	fresh := map[string]float64{
		"BenchmarkA": 2_000_000, // +100% over the best run: breached
		"BenchmarkB": 1_500_000, // +50%: inside the 75% headroom
		"BenchmarkC": 9_000_000, // never recorded: ignored
	}
	rep := compareSummaries(trendBest(history), fresh, 0.75, 100_000)
	if len(rep.regressions) != 1 || rep.regressions[0].name != "BenchmarkA" {
		t.Fatalf("trend regressions = %+v, want exactly BenchmarkA", rep.regressions)
	}
}

func TestReadTrendRejectsCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")
	if err := os.WriteFile(path, []byte("{\"ns_per_op\":{\"BenchmarkA\":1}}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTrend(path); err == nil {
		t.Fatal("readTrend accepted a corrupt series line")
	}
}
