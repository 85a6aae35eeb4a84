// Command benchjson converts `go test -bench` output into a compact
// JSON summary so the repository's performance trajectory is tracked
// across PRs (the CI benchmark steps write BENCH_core.json and
// BENCH_relstore.json with it).
//
// Usage:
//
//	go test -run xxx -bench . -benchtime=200ms -count=3 -benchmem . | benchjson -out BENCH_core.json
//
// For every benchmark name ending in "Naive" with a "Planned" sibling
// (the relstore query-planner benchmarks) the summary records the
// naive-over-planned speedup factor; likewise "Feed" / "Snapshot"
// siblings (the warm-start benchmarks) record feed-over-snapshot.
//
// Lines that carry -benchmem's B/op and allocs/op also record them
// (median per benchmark, like ns/op); the gates read ns/op only.
//
// With -compare old.json the command additionally gates on performance
// regressions: any benchmark present in both the old summary and the
// fresh input whose ns/op grew beyond -tolerance (relative, default
// 0.35) fails the run with exit status 2 (tool errors — unreadable
// baseline, empty input — keep exit 1). Benchmarks below -floor ns/op
// in the old summary are skipped (single-iteration timings of
// micro-benchmarks are noise-dominated), and benchmarks appearing in
// only one of the two summaries are ignored, so adding or retiring a
// benchmark never trips the gate. The old summary is read before -out
// is written, so both flags may name the same file — CI compares the
// fresh run against the committed BENCH_*.json and then overwrites it
// for the artifact upload.
//
// With -trend series.jsonl the command also tracks the long-run
// trajectory: the fresh medians are gated against the per-benchmark
// best (minimum ns/op) across every prior run recorded in the series,
// with -trend-tolerance headroom, and are then appended to the series
// as one JSON line. A missing or empty series bootstraps silently —
// the first run only records. Trend breaches exit 2 like -compare
// regressions; the fresh line is appended either way, so the history
// stays complete.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op`)
	memFields = regexp.MustCompile(`\s([0-9.]+) B/op\s+([0-9.]+) allocs/op`)
)

// summary is the benchmark summary document.
type summary struct {
	// Note says how to regenerate the file.
	Note string `json:"note"`
	// NsPerOp maps benchmark name (CPU suffix stripped) to ns/op. When
	// a benchmark appears several times (-count > 1), the median wins.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp hold -benchmem's B/op and allocs/op,
	// median per benchmark, for the benchmarks whose lines carry them.
	BytesPerOp  map[string]float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// PlanSpeedups maps "<Name>" to naive/planned ns ratios for
	// benchmark pairs named <Name>Naive / <Name>Planned (the relstore
	// query planner against its pre-planner baseline).
	PlanSpeedups map[string]float64 `json:"speedup_naive_over_planned,omitempty"`
	// WarmSpeedups maps "<Name>" to feed/snapshot ns ratios for
	// benchmark pairs named <Name>Feed / <Name>Snapshot (cold feed
	// digestion against the columnar snapshot warm start).
	WarmSpeedups map[string]float64 `json:"speedup_feed_over_snapshot,omitempty"`
}

// speedupPairs names the benchmark suffix conventions the summary
// derives ratios from.
var speedupPairs = []struct {
	slow, fast string
	dst        func(*summary) map[string]float64
}{
	{"Naive", "Planned", func(s *summary) map[string]float64 { return s.PlanSpeedups }},
	{"Feed", "Snapshot", func(s *summary) map[string]float64 { return s.WarmSpeedups }},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "BENCH_core.json", "output JSON path (- for stdout)")
	compare := flag.String("compare", "", "gate against this prior summary JSON (read before -out is written)")
	tolerance := flag.Float64("tolerance", 0.35, "relative ns/op growth beyond which a shared benchmark regresses")
	floor := flag.Float64("floor", 100_000, "skip the gate for benchmarks under this many ns/op in the old summary (noise)")
	trend := flag.String("trend", "", "gate against the per-benchmark best of this JSONL run series, then append this run")
	trendTolerance := flag.Float64("trend-tolerance", 0.75, "relative growth over the series best beyond which the trend gate fails")
	flag.Parse()

	// Read the baseline before anything is written so -compare and
	// -out may name the same committed file.
	var baseline *summary
	if *compare != "" {
		old, err := readSummary(*compare)
		if err != nil {
			log.Fatal(err)
		}
		baseline = old
	}

	samples, err := parseBench(os.Stdin, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	if len(samples.ns) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}

	doc := buildSummary(samples)

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(doc.NsPerOp))
	}

	breached := false
	if baseline != nil {
		report := compareSummaries(baseline.NsPerOp, doc.NsPerOp, *tolerance, *floor)
		fmt.Fprintf(os.Stderr, "gate: %d compared, %d under floor, %d only in one summary\n",
			report.compared, report.underFloor, report.unmatched)
		if report.compared == 0 && len(baseline.NsPerOp) > 0 {
			// Zero shared above-floor benchmarks means the gate checked
			// nothing — a wrong -compare target or a mass rename must
			// not pass vacuously.
			log.Fatalf("gate compared no benchmarks against %s: wrong baseline?", *compare)
		}
		if len(report.regressions) > 0 {
			for _, r := range report.regressions {
				fmt.Fprintf(os.Stderr, "REGRESSION %s: %.0f -> %.0f ns/op (%+.0f%%, tolerance %.0f%%)\n",
					r.name, r.oldNs, r.newNs, 100*(r.newNs/r.oldNs-1), 100**tolerance)
			}
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond tolerance against %s\n",
				len(report.regressions), *compare)
			breached = true
		} else {
			fmt.Fprintln(os.Stderr, "gate: ok")
		}
	}

	if *trend != "" {
		history, err := readTrend(*trend)
		if err != nil {
			log.Fatal(err)
		}
		best := trendBest(history)
		report := compareSummaries(best, doc.NsPerOp, *trendTolerance, *floor)
		if len(history) == 0 {
			fmt.Fprintf(os.Stderr, "trend: empty series %s, recording the first run\n", *trend)
		} else {
			fmt.Fprintf(os.Stderr, "trend: %d run(s) in series, %d benchmark(s) gated against the best\n",
				len(history), report.compared)
		}
		for _, r := range report.regressions {
			fmt.Fprintf(os.Stderr, "TREND %s: best %.0f -> %.0f ns/op (%+.0f%%, tolerance %.0f%%)\n",
				r.name, r.oldNs, r.newNs, 100*(r.newNs/r.oldNs-1), 100**trendTolerance)
		}
		// The fresh run joins the series whether it breached or not:
		// the history must record what actually happened.
		if err := appendTrend(*trend, doc.NsPerOp); err != nil {
			log.Fatal(err)
		}
		if len(report.regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) drifted beyond the series best in %s\n",
				len(report.regressions), *trend)
			breached = true
		} else {
			fmt.Fprintln(os.Stderr, "trend: ok")
		}
	}

	if breached {
		// Exit 2 distinguishes a confirmed regression from tool errors
		// (log.Fatal's exit 1): CI treats 2 as a gate verdict and
		// anything else as a broken bench run.
		os.Exit(2)
	}
}

// trendEntry is one JSONL line of a -trend series: the medians of one
// benchmark run.
type trendEntry struct {
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp hold -benchmem's B/op and allocs/op,
	// median per benchmark, for the benchmarks whose lines carry them.
	BytesPerOp  map[string]float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// readTrend loads a JSONL run series. A missing file is an empty
// series (the first run bootstraps it); a malformed line is an error —
// a corrupted history must not silently weaken the gate.
func readTrend(path string) ([]trendEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var history []trendEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e trendEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("parse %s line %d: %w", path, len(history)+1, err)
		}
		history = append(history, e)
	}
	return history, sc.Err()
}

// trendBest reduces a run series to the per-benchmark minimum ns/op —
// the best the benchmark has ever done, the reference the trend gate
// measures drift against.
func trendBest(history []trendEntry) map[string]float64 {
	best := make(map[string]float64)
	for _, e := range history {
		for name, ns := range e.NsPerOp {
			if cur, ok := best[name]; !ok || ns < cur {
				best[name] = ns
			}
		}
	}
	return best
}

// appendTrend records one run at the end of the series file.
func appendTrend(path string, nsPerOp map[string]float64) error {
	line, err := json.Marshal(trendEntry{NsPerOp: nsPerOp})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples are the per-benchmark measurements of one input, keyed by
// benchmark name with the CPU suffix stripped.
type samples struct {
	ns, bytes, allocs map[string][]float64
}

// parseBench scans `go test -bench` output, echoing every line to echo
// (the CI log keeps the raw table) and collecting ns/op samples per
// benchmark, and B/op and allocs/op samples where a line carries them.
func parseBench(r io.Reader, echo io.Writer) (samples, error) {
	s := samples{ns: make(map[string][]float64), bytes: make(map[string][]float64), allocs: make(map[string][]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		s.ns[m[1]] = append(s.ns[m[1]], ns)
		if mem := memFields.FindStringSubmatch(line); mem != nil {
			b, errB := strconv.ParseFloat(mem[1], 64)
			a, errA := strconv.ParseFloat(mem[2], 64)
			if errB == nil && errA == nil {
				s.bytes[m[1]] = append(s.bytes[m[1]], b)
				s.allocs[m[1]] = append(s.allocs[m[1]], a)
			}
		}
	}
	return s, sc.Err()
}

// medians reduces each benchmark's samples to their median; nil when
// there are none.
func medians(samples map[string][]float64) map[string]float64 {
	if len(samples) == 0 {
		return nil
	}
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		sort.Float64s(xs)
		out[name] = xs[len(xs)/2]
	}
	return out
}

// buildSummary reduces samples (median per benchmark) and derives the
// speedup-pair ratios.
func buildSummary(s samples) *summary {
	doc := &summary{
		Note:         "medians per benchmark; regenerate with the CI workflow's step for the file: go test -run xxx -bench . -benchtime=<its benchtime> -count=3 <its packages> | benchjson -out <file>",
		NsPerOp:      medians(s.ns),
		BytesPerOp:   medians(s.bytes),
		AllocsPerOp:  medians(s.allocs),
		PlanSpeedups: make(map[string]float64),
		WarmSpeedups: make(map[string]float64),
	}
	for name, ns := range doc.NsPerOp {
		for _, pair := range speedupPairs {
			base, ok := strings.CutSuffix(name, pair.slow)
			if !ok {
				continue
			}
			fast, ok := doc.NsPerOp[base+pair.fast]
			if !ok || fast == 0 {
				continue
			}
			pair.dst(doc)[base] = round2(ns / fast)
		}
	}
	if len(doc.PlanSpeedups) == 0 {
		doc.PlanSpeedups = nil
	}
	if len(doc.WarmSpeedups) == 0 {
		doc.WarmSpeedups = nil
	}
	return doc
}

// readSummary loads a prior summary document.
func readSummary(path string) (*summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc summary
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &doc, nil
}

// regression is one benchmark that slowed beyond tolerance.
type regression struct {
	name         string
	oldNs, newNs float64
}

// gateReport is the outcome of one baseline comparison.
type gateReport struct {
	compared    int // names in both summaries, at or above the floor
	underFloor  int // shared names skipped as noise-dominated
	unmatched   int // names in only one summary (new or retired benchmarks)
	regressions []regression
}

// compareSummaries gates fresh ns/op numbers against a baseline. Only
// benchmarks present in both maps participate; shared benchmarks whose
// baseline is under floor ns/op are skipped (their single-iteration
// timings are noise); the rest regress when they grew beyond the
// relative tolerance.
func compareSummaries(oldNs, newNs map[string]float64, tolerance, floor float64) gateReport {
	var rep gateReport
	for name, o := range oldNs {
		n, ok := newNs[name]
		if !ok {
			rep.unmatched++
			continue
		}
		if o < floor {
			rep.underFloor++
			continue
		}
		rep.compared++
		if n > o*(1+tolerance) {
			rep.regressions = append(rep.regressions, regression{name: name, oldNs: o, newNs: n})
		}
	}
	for name := range newNs {
		if _, ok := oldNs[name]; !ok {
			rep.unmatched++
		}
	}
	sort.Slice(rep.regressions, func(i, j int) bool {
		return rep.regressions[i].name < rep.regressions[j].name
	})
	return rep
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
