// Command osdiv regenerates every table and figure of the paper's
// evaluation from a data source (calibrated corpus, XML feeds, or an
// imported database).
//
// Usage:
//
//	osdiv [-db study.db | -feeds dir [-stream] | -snapshot study.osds] <subcommand>
//
// Subcommands:
//
//	tables    print Tables I-VI (-t N for one table)
//	figures   print Figures 2 and 3 (-f N for one figure)
//	kwise     print the k-wise product overlap counts (§IV-B)
//	select    rank replica sets on history data (§IV-C)
//	releases  print the per-release overlap study (Table VI)
//	simulate  run the attack simulation extension (E12)
//	recommend search OS assignments and rotation schedules maximizing
//	          Monte Carlo survival (internal/scenario); prints the
//	          httpapi wire document, byte-identical to the server's
//	          POST /api/recommend for the same spec
//	sqltable3 print the Table III matrix computed by the SQL engine
//	          (requires -db; one grouped hash-join plan, no Study)
//	query     run one ad-hoc SELECT against the imported database
//	          (requires -db; positional args bind `?` placeholders;
//	          output is byte-identical to the server's POST /api/query)
//	serve     stay resident and answer every query over HTTP/JSON
//	          (-addr, -max-inflight, -max-queue-wait; drains gracefully
//	          on SIGTERM). The corpus loads in the background — /readyz
//	          answers 503 until it is resident. With `-watch dir` the
//	          server hot-reloads delta feeds from dir on SIGHUP, POST
//	          /admin/reload, or a directory poll (-watch-interval),
//	          swapping epochs atomically and degrading to the previous
//	          epoch when a reload fails; `-tee file` snapshots each
//	          reloaded epoch for the next warm start. With `-shard i/N`
//	          the server owns the i-th of N deterministic year-range
//	          corpus slices — the backend role behind `osdiv gateway`.
//	gateway   scatter-gather front-end over sharded backends
//	          (-backends url1,url2,...): fans every /api query out to
//	          all shards, merges the partial aggregates, and answers
//	          byte-identically to one server over the whole corpus
//	          (docs/ARCHITECTURE.md explains the merge rules).
//
// `tables -json` prints the httpapi wire documents instead of ASCII
// tables — the corpus provenance document first, then tables 1-6;
// `osdiv tables -t 3 -json` is byte-identical to the server's
// /api/table3 response (the CI smoke step diffs them).
//
// `-snapshot study.osds` warm-starts any subcommand, serve included,
// from a columnar snapshot written by nvdimport/nvdgen — no feed or
// database needed, and the reported tables are byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/relstore"
	"osdiversity/internal/report"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("osdiv: ")

	db := flag.String("db", "", "analyze a database produced by nvdimport")
	feeds := flag.String("feeds", "", "analyze XML feeds from this directory")
	workers := flag.Int("workers", 1, "worker count for ingestion and analysis (0 = all CPUs)")
	stream := flag.Bool("stream", false, "with -feeds, ingest through the bounded streaming pipeline (constant memory)")
	synthetic := flag.Int("synthetic", 0, "analyze a seeded synthetic modern-NVD corpus of this many entries")
	distros := flag.Int("distros", 32, "synthetic universe width (with -synthetic)")
	seed := flag.Uint64("seed", 1, "synthetic corpus seed (with -synthetic)")
	snapPath := flag.String("snapshot", "", "warm-start from a columnar snapshot file (read-only)")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}

	// sqltable3 and query run against the database directly — no Study
	// needed.
	if flag.Arg(0) == "sqltable3" {
		if err := runSQLTable3(*db, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.Arg(0) == "query" {
		if err := runQuery(*db, *workers, flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := loadConfig{
		db: *db, feeds: *feeds, workers: *workers, stream: *stream,
		synthetic: *synthetic, distros: *distros, seed: *seed, snapshot: *snapPath,
	}

	// serve loads its corpus asynchronously so the listener (and the
	// /healthz + /readyz probes) come up immediately; every other
	// subcommand needs the analysis resident before it can start.
	if flag.Arg(0) == "serve" {
		if err := runServe(cfg, flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	// gateway owns no corpus at all — it scatters to shard backends.
	if flag.Arg(0) == "gateway" {
		if err := runGateway(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		return
	}

	a, err := loadAnalysis(cfg)
	if err != nil {
		log.Fatal(err)
	}

	args := flag.Args()[1:]
	switch flag.Arg(0) {
	case "tables":
		err = runTables(a, cfg, args)
	case "figures":
		err = runFigures(a, args)
	case "kwise":
		err = runKWise(a)
	case "select":
		err = runSelect(a, args)
	case "releases":
		err = runReleases(a)
	case "simulate":
		err = runSimulate(a, args)
	case "recommend":
		err = runRecommend(a, args)
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: osdiv [-db file | -feeds dir [-stream] | -synthetic n | -snapshot file] [-workers n] tables|figures|kwise|select|releases|simulate|recommend|sqltable3|query|serve|gateway [options]")
	os.Exit(2)
}

// runSQLTable3 prints the Table III v(AB) matrix computed entirely by
// the embedded SQL engine's grouped hash-join plan.
func runSQLTable3(dbPath string, workers int) error {
	if dbPath == "" {
		return fmt.Errorf("sqltable3 needs -db (a database produced by nvdimport)")
	}
	cells, err := osdiversity.SQLPairwiseShared(dbPath, osdiversity.WithParallelism(workers))
	if err != nil {
		return err
	}
	t := report.NewTable("Table III via SQL — shared vulnerabilities per OS pair (one grouped join plan)",
		"Pair", "v(AB)")
	for _, c := range cells {
		t.AddRowValues(c.A+"-"+c.B, c.Shared)
	}
	return t.WriteASCII(os.Stdout)
}

// runQuery executes one ad-hoc SELECT against the imported database and
// prints the httpapi.QueryResult document — byte-identical to the
// server's POST /api/query response for the same statement, which the
// CI smoke diffs. Arguments after the SQL bind positionally to `?`
// placeholders: each parses as JSON (42, 4.5, true, null, "text"), and
// anything that is not valid JSON binds as a plain string.
func runQuery(dbPath string, workers int, args []string) error {
	if dbPath == "" {
		return fmt.Errorf("query needs -db (a database produced by nvdimport)")
	}
	if len(args) < 1 {
		return fmt.Errorf("usage: osdiv -db file query \"SELECT ...\" [arg ...]")
	}
	sql := args[0]
	stmt, err := relstore.Parse(sql)
	if err != nil {
		return err
	}
	if _, ok := stmt.(*relstore.SelectStmt); !ok {
		return fmt.Errorf("only SELECT statements are served; data and schema changes go through nvdimport")
	}
	jsonArgs := make([]any, 0, len(args)-1)
	for _, raw := range args[1:] {
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil || dec.More() {
			v = raw // not JSON: bind as text
		}
		jsonArgs = append(jsonArgs, v)
	}
	vals, err := server.QueryArgsFromJSON(jsonArgs)
	if err != nil {
		return err
	}
	db, err := vulndb.Open(dbPath)
	if err != nil {
		return err
	}
	db.SetParallelism(workers)
	res, err := db.Store().Query(sql, vals...)
	if err != nil {
		return err
	}
	body, err := httpapi.Marshal(server.BuildQueryResult(res))
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(body)
	return err
}

// runRecommend searches OS assignments and rotation schedules for an
// intrusion-tolerant replica group and prints the httpapi.Recommend
// document — byte-identical to the server's POST /api/recommend
// response for the same spec, which the CI smoke diffs.
func runRecommend(a *osdiversity.Analysis, args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	universe := fs.String("universe", "", "comma-separated candidate OS names (default: the eight history-eligible distributions)")
	f := fs.Int("f", 0, "fault threshold (3f+1 replicas per window; default 1)")
	windows := fs.Int("windows", 0, "temporal rotation windows (default 2)")
	from := fs.Int("from", 0, "first disclosure year considered (default: corpus low)")
	to := fs.Int("to", 0, "last disclosure year considered (default: corpus high)")
	interval := fs.Float64("interval", 0, "rotation cadence in attack-model time units (default 2)")
	trials := fs.Int("trials", 0, "Monte Carlo trials per candidate schedule (default 200)")
	seed := fs.Uint64("seed", 0, "root seed of the deterministic trial streams (default 1)")
	beam := fs.Int("beam", 0, "assignments kept per window before crossing (default 4)")
	top := fs.Int("top", 0, "candidate schedules reported (default 3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := httpapi.RecommendRequest{
		F: *f, Windows: *windows, FromYear: *from, ToYear: *to,
		Interval: *interval, Trials: *trials, Seed: *seed, Beam: *beam, Top: *top,
	}
	if *universe != "" {
		req.Universe = strings.Split(*universe, ",")
	}
	canon, err := server.CanonRecommend(a, req)
	if err != nil {
		return err
	}
	doc, err := server.BuildRecommend(a, canon)
	if err != nil {
		return err
	}
	body, err := httpapi.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(body)
	return err
}

type loadConfig struct {
	db        string
	feeds     string
	workers   int
	stream    bool
	synthetic int
	distros   int
	seed      uint64
	snapshot  string
	shard     string // "i/N" year-range slice (serve -shard)
}

func loadAnalysis(cfg loadConfig) (*osdiversity.Analysis, error) {
	opts := []osdiversity.Option{osdiversity.WithParallelism(cfg.workers)}
	if cfg.shard != "" {
		i, n, err := parseShardSpec(cfg.shard)
		if err != nil {
			return nil, err
		}
		opts = append(opts, osdiversity.WithYearShard(i, n))
	}
	if cfg.stream && cfg.feeds == "" {
		return nil, fmt.Errorf("-stream needs -feeds (the streaming pipeline ingests XML feeds)")
	}
	if cfg.snapshot != "" && (cfg.db != "" || cfg.feeds != "" || cfg.synthetic > 0) {
		return nil, fmt.Errorf("-snapshot is a complete corpus; it cannot combine with -db, -feeds or -synthetic")
	}
	switch {
	case cfg.snapshot != "":
		return osdiversity.LoadSnapshot(cfg.snapshot, opts...)
	case cfg.synthetic > 0:
		return osdiversity.LoadSynthetic(osdiversity.SyntheticSpec{
			Entries: cfg.synthetic, Distros: cfg.distros, Seed: cfg.seed,
		}, opts...)
	case cfg.db != "":
		return osdiversity.LoadDatabase(cfg.db, opts...)
	case cfg.feeds != "":
		matches, err := filepath.Glob(filepath.Join(cfg.feeds, "*.xml*"))
		if err != nil || len(matches) == 0 {
			return nil, fmt.Errorf("no feeds found in %s", cfg.feeds)
		}
		if cfg.stream {
			return osdiversity.StreamFeeds(matches, opts...)
		}
		return osdiversity.LoadFeeds(matches, opts...)
	default:
		return osdiversity.LoadCalibrated(opts...)
	}
}

func runTables(a *osdiversity.Analysis, cfg loadConfig, args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	which := fs.Int("t", 0, "table number (1-6); 0 prints all")
	asJSON := fs.Bool("json", false, "emit the httpapi wire documents (the bytes `osdiv serve` answers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		return runTablesJSON(a, cfg, *which)
	}
	printed := false
	show := func(n int) bool { return *which == 0 || *which == n }
	if show(1) {
		printTable1(a)
		printed = true
	}
	if show(2) {
		printTable2(a)
		printed = true
	}
	if show(3) {
		printTable3(a)
		printed = true
	}
	if show(4) {
		printTable4(a)
		printed = true
	}
	if show(5) {
		printTable5(a)
		printed = true
	}
	if show(6) {
		return runReleases(a)
	}
	if !printed {
		return fmt.Errorf("unknown table %d", *which)
	}
	return nil
}

// runTablesJSON prints tables as httpapi wire documents, one JSON line
// per table, byte-identical to the server's /api/tableN responses. The
// all-tables form leads with the corpus provenance document (the
// /corpus bytes: source, engine, epoch, snapshot digest).
func runTablesJSON(a *osdiversity.Analysis, cfg loadConfig, which int) error {
	builders := map[int]func() (any, error){
		1: func() (any, error) { return server.BuildTable1(a), nil },
		2: func() (any, error) { return server.BuildTable2(a), nil },
		3: func() (any, error) { return server.BuildTable3(a), nil },
		4: func() (any, error) { return server.BuildTable4(a), nil },
		// The split year canonicalizes exactly as the server's cache-key
		// layer does, so the printed bytes match /api/table5 on any corpus.
		5: func() (any, error) {
			return server.BuildTable5(a, server.CanonSplitYear(a, server.DefaultSplitYear)), nil
		},
		6: func() (any, error) { return server.BuildReleases(a) },
	}
	emit := func(n int) error {
		doc, err := builders[n]()
		if err != nil {
			return err
		}
		b, err := httpapi.Marshal(doc)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if which != 0 {
		if _, ok := builders[which]; !ok {
			return fmt.Errorf("unknown table %d", which)
		}
		return emit(which)
	}
	// A one-shot CLI render is always generation 1 with no reload
	// history, exactly like a freshly booted server.
	corpus := server.BuildCorpus(a, sourceName(cfg), "bitset", a.Parallelism(), "", cfg.db != "",
		server.EpochStatus{Epoch: 1}, nil)
	b, err := httpapi.Marshal(corpus)
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(b); err != nil {
		return err
	}
	for n := 1; n <= 6; n++ {
		if err := emit(n); err != nil {
			return err
		}
	}
	return nil
}

func printTable1(a *osdiversity.Analysis) {
	rows, distinct := a.ValidityTable()
	t := report.NewTable("Table I — distribution of OS vulnerabilities in NVD",
		"OS", "Valid", "Unknown", "Unspecified", "Disputed")
	for _, r := range rows {
		t.AddRowValues(r.OS, r.Valid, r.Unknown, r.Unspecified, r.Disputed)
	}
	t.AddRowValues(distinct.OS, distinct.Valid, distinct.Unknown, distinct.Unspecified, distinct.Disputed)
	t.WriteASCII(os.Stdout)
	fmt.Println()
}

func printTable2(a *osdiversity.Analysis) {
	rows, shares := a.ClassTable()
	t := report.NewTable("Table II — vulnerabilities per OS component class",
		"OS", "Driver", "Kernel", "Sys. Soft.", "App.", "Total")
	for _, r := range rows {
		t.AddRowValues(r.OS, r.Driver, r.Kernel, r.SysSoft, r.App,
			r.Driver+r.Kernel+r.SysSoft+r.App)
	}
	t.AddRow("% of distinct",
		fmt.Sprintf("%.1f%%", shares[0]), fmt.Sprintf("%.1f%%", shares[1]),
		fmt.Sprintf("%.1f%%", shares[2]), fmt.Sprintf("%.1f%%", shares[3]), "")
	t.WriteASCII(os.Stdout)
	fmt.Println()
}

func printTable3(a *osdiversity.Analysis) {
	t := report.NewTable("Table III — shared vulnerabilities per OS pair (All / NoApp / NoApp+NoLocal)",
		"Pair", "v(A)", "v(B)", "v(AB)", "v(A)'", "v(B)'", "v(AB)'", "v(A)''", "v(B)''", "v(AB)''")
	for _, row := range a.PairwiseOverlaps() {
		t.AddRowValues(row.A+"-"+row.B,
			row.TotalA[0], row.TotalB[0], row.All,
			row.TotalA[1], row.TotalB[1], row.NoApp,
			row.TotalA[2], row.TotalB[2], row.Remote)
	}
	t.WriteASCII(os.Stdout)
	fmt.Printf("\naverage Fat->IsolatedThin reduction: %.0f%%\n\n", a.FilterReduction())
}

func printTable4(a *osdiversity.Analysis) {
	t := report.NewTable("Table IV — common vulnerabilities on Isolated Thin Servers by part",
		"Pair", "Driver", "Kernel", "Sys. Soft.", "Total")
	for _, row := range a.PartBreakdowns() {
		t.AddRowValues(row.A+"-"+row.B, row.Driver, row.Kernel, row.SysSoft, row.Total)
	}
	t.WriteASCII(os.Stdout)
	fmt.Println()
}

func printTable5(a *osdiversity.Analysis) {
	t := report.NewTable("Table V — history (1994-2005) vs observed (2006-2010), Isolated Thin Servers",
		"Pair", "History", "Observed")
	for _, cell := range a.HistoryObserved(2005) {
		t.AddRowValues(cell.A+"-"+cell.B, cell.History, cell.Observed)
	}
	t.WriteASCII(os.Stdout)
	fmt.Println()
}

func runFigures(a *osdiversity.Analysis, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	which := fs.Int("f", 0, "figure number (2 or 3); 0 prints both")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *which == 0 || *which == 2 {
		if err := printFigure2(a); err != nil {
			return err
		}
	}
	if *which == 0 || *which == 3 {
		printFigure3(a)
	}
	if *which != 0 && *which != 2 && *which != 3 {
		return fmt.Errorf("unknown figure %d", *which)
	}
	return nil
}

func printFigure2(a *osdiversity.Analysis) error {
	families := map[string][]string{
		"Solaris family": {"Solaris", "OpenSolaris"},
		"BSD family":     {"FreeBSD", "NetBSD", "OpenBSD"},
		"Windows family": {"Windows2008", "Windows2003", "Windows2000"},
		"Linux family":   {"Debian", "Ubuntu", "RedHat"},
	}
	order := []string{"Solaris family", "BSD family", "Windows family", "Linux family"}
	for _, fam := range order {
		ys := report.NewYearSeries("Figure 2 — " + fam)
		for _, osName := range families[fam] {
			series, err := a.TemporalSeries(osName)
			if err != nil {
				return err
			}
			ys.Add(osName, series)
		}
		ys.Write(os.Stdout)
		fmt.Println()
	}
	return nil
}

func printFigure3(a *osdiversity.Analysis) {
	configs := []struct {
		name    string
		members []string
	}{
		{"Debian", []string{"Debian"}},
		{"Set1", []string{"Windows2003", "Solaris", "Debian", "OpenBSD"}},
		{"Set2", []string{"Windows2003", "Solaris", "Debian", "NetBSD"}},
		{"Set3", []string{"Windows2003", "Solaris", "RedHat", "NetBSD"}},
		{"Set4", []string{"OpenBSD", "NetBSD", "Debian", "RedHat"}},
	}
	hist := report.NewBarChart("Figure 3 — configurations, history period (1994-2005)")
	obs := report.NewBarChart("Figure 3 — configurations, observed period (2006-2010)")
	for _, cfg := range configs {
		h, o, err := a.EvaluateConfiguration(cfg.members, 2005)
		if err != nil {
			continue
		}
		hist.Add(cfg.name, float64(h))
		obs.Add(cfg.name, float64(o))
	}
	hist.Write(os.Stdout)
	fmt.Println()
	obs.Write(os.Stdout)
	fmt.Println()
}

func runKWise(a *osdiversity.Analysis) error {
	kwise := a.KWiseProducts()
	var ks []int
	for k := range kwise {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	t := report.NewTable("k-wise overlap — distinct vulnerabilities affecting >= k OS products",
		"k", "vulnerabilities")
	for _, k := range ks {
		if k >= 3 {
			t.AddRowValues(k, kwise[k])
		}
	}
	t.WriteASCII(os.Stdout)
	fmt.Printf("\nmost shared: %s\n", strings.Join(a.MostShared(3), ", "))
	return nil
}

func runSelect(a *osdiversity.Analysis, args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	k := fs.Int("k", 4, "replica set size")
	onePerFamily := fs.Bool("one-per-family", false, "draw at most one OS per family")
	top := fs.Int("top", 10, "show the best N sets")
	toYear := fs.Int("to", 2005, "selection window end year (history period)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ranked := a.SelectReplicaSets(*k, *onePerFamily, *toYear)
	if len(ranked) > *top {
		ranked = ranked[:*top]
	}
	t := report.NewTable(fmt.Sprintf("replica sets of size %d ranked by shared vulnerabilities through %d", *k, *toYear),
		"Rank", "Members", "Shared")
	for i, r := range ranked {
		t.AddRowValues(i+1, strings.Join(r.Members, ", "), r.Cost)
	}
	return t.WriteASCII(os.Stdout)
}

func runReleases(a *osdiversity.Analysis) error {
	// The grid lives in server.BuildReleases so the ASCII table, the
	// -json document and the /api/releases response share one source.
	doc, err := server.BuildReleases(a)
	if err != nil {
		return err
	}
	t := report.NewTable("Table VI — common vulnerabilities between OS releases (Isolated Thin Server)",
		"Releases", "Total")
	for _, c := range doc.Cells {
		t.AddRowValues(c.A+c.VA+"-"+c.B+c.VB, c.Shared)
	}
	t.WriteASCII(os.Stdout)
	fmt.Println()
	return nil
}

func runSimulate(a *osdiversity.Analysis, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	trials := fs.Int("trials", 200, "Monte Carlo trials per configuration")
	f := fs.Int("f", 1, "fault threshold (3f+1 replicas)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	configs := []struct {
		name    string
		members []string
	}{
		{"homogeneous Debian", repeat("Debian", 3**f+1)},
		{"homogeneous Windows2000", repeat("Windows2000", 3**f+1)},
		{"Set1 (diverse)", []string{"Windows2003", "Solaris", "Debian", "OpenBSD"}},
		{"Set4 (budget diverse)", []string{"OpenBSD", "NetBSD", "Debian", "RedHat"}},
		{"Windows-only (worst diverse)", []string{"Windows2000", "Windows2003", "Windows2008", "Solaris"}},
	}
	t := report.NewTable(fmt.Sprintf("attack simulation (f=%d, %d trials): sequential exploit campaigns", *f, *trials),
		"Configuration", "MeanTTC", "MedianTTC", "SharedFatal", "Unbroken")
	for _, cfg := range configs {
		if len(cfg.members) != 3**f+1 {
			continue
		}
		sum, err := a.SimulateAttack(cfg.name, cfg.members, *f, *trials)
		if err != nil {
			return err
		}
		t.AddRow(cfg.name,
			fmt.Sprintf("%.3f", sum.MeanTTC), fmt.Sprintf("%.3f", sum.MedianTTC),
			fmt.Sprintf("%.2f", sum.SharedFatal), fmt.Sprint(sum.Unbroken))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		return err
	}
	gain, err := a.DiversityGain("Debian", []string{"Windows2003", "Solaris", "Debian", "OpenBSD"}, 1, *trials)
	if err != nil {
		return err
	}
	fmt.Printf("\ndiversity gain (Set1 vs homogeneous Debian): %.2fx mean time-to-compromise\n", gain)
	return nil
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}
