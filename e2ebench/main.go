// Command e2ebench is the repository's end-to-end serving benchmark. It
// builds the serving system in process on loopback TCP listeners over a
// seeded synthetic corpus, drives one named workload, byte-checks every
// response against the facade builders, and prints the end-to-end
// metrics, or with -trace 1 the per-layer metrics, with a JSON result
// as the last line of standard output. RATIONALE.md explains the
// workloads and the metrics. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload hot-tables --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// commit is stamped by run.sh when the source is a git checkout.
var commit = "unknown"

// buildDir holds what a run leaves behind, relative to the working
// directory: run.sh builds there too.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of the corpus, the delta feeds and every request sequence")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 adds the traced phase and prints the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rep, err := execute(config{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		entries: 100_000, dir: dir,
		spanFile: filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed)),
	})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintln(stderr, "e2ebench: failed requests, byte-check mismatches or failed reloads; see the header lines")
		return 1
	}
	return 0
}
