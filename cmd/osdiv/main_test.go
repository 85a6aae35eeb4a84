package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/server"
)

// The smoke tests re-execute the test binary with GO_OSDIV_MAIN=1 so
// each subcommand runs through the real main(), flag parsing, loaders
// and printers, end to end against the generated calibrated corpus.

func TestMain(m *testing.M) {
	if os.Getenv("GO_OSDIV_MAIN") == "1" {
		os.Args = []string{"osdiv"}
		if raw := os.Getenv("GO_OSDIV_ARGS"); raw != "" {
			os.Args = append(os.Args, strings.Split(raw, "\x1f")...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runOsdiv re-executes the test binary as the osdiv command.
func runOsdiv(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(),
		"GO_OSDIV_MAIN=1",
		"GO_OSDIV_ARGS="+strings.Join(args, "\x1f"))
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	err := cmd.Run()
	code := 0
	if exitErr, ok := err.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("run osdiv %v: %v", args, err)
	}
	return outBuf.String(), errBuf.String(), code
}

func TestSubcommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the corpus per subcommand")
	}
	tests := []struct {
		name string
		args []string
		// wantOut are substrings that must appear on stdout.
		wantOut []string
	}{
		{
			name: "tables",
			args: []string{"-workers", "4", "tables"},
			wantOut: []string{
				"Table I — distribution of OS vulnerabilities in NVD",
				"Table II — vulnerabilities per OS component class",
				"Table III — shared vulnerabilities per OS pair",
				"Table IV — common vulnerabilities on Isolated Thin Servers by part",
				"Table V — history (1994-2005) vs observed (2006-2010)",
				"# distinct",
				"1887",
			},
		},
		{
			name:    "tables one",
			args:    []string{"tables", "-t", "1"},
			wantOut: []string{"Table I", "1887"},
		},
		{
			name: "figures",
			args: []string{"-workers", "4", "figures"},
			wantOut: []string{
				"Figure 2 — Windows family",
				"Figure 2 — Linux family",
				"Figure 3 — configurations, history period (1994-2005)",
			},
		},
		{
			name:    "kwise",
			args:    []string{"-workers", "4", "kwise"},
			wantOut: []string{"k-wise overlap", "most shared: CVE-2008-4609"},
		},
		{
			name:    "select",
			args:    []string{"-workers", "4", "select", "-one-per-family", "-top", "3"},
			wantOut: []string{"replica sets of size 4", "Windows2003", "Solaris"},
		},
		{
			name:    "releases",
			args:    []string{"-workers", "4", "releases"},
			wantOut: []string{"Table VI — common vulnerabilities between OS releases", "Debian4.0-RedHat5.0"},
		},
		{
			name:    "simulate",
			args:    []string{"-workers", "4", "simulate", "-trials", "20"},
			wantOut: []string{"attack simulation", "diversity gain (Set1 vs homogeneous Debian)"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := runOsdiv(t, tt.args...)
			if code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr)
			}
			for _, want := range tt.wantOut {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout missing %q\nstdout: %.2000s", want, stdout)
				}
			}
		})
	}
}

func TestSQLTable3Smoke(t *testing.T) {
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
	stdout, stderr, code := runOsdiv(t, "-db", dbPath, "-workers", "4", "sqltable3")
	if code != 0 {
		t.Fatalf("sqltable3 exit code %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"Table III via SQL", "OpenBSD-NetBSD"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q\nstdout: %.2000s", want, stdout)
		}
	}

	_, stderr, code = runOsdiv(t, "sqltable3")
	if code == 0 {
		t.Fatal("sqltable3 without -db succeeded, want failure")
	}
	if !strings.Contains(stderr, "needs -db") {
		t.Errorf("stderr missing -db diagnostic: %s", stderr)
	}
}

// TestStreamFeedsSmoke asserts `-feeds` prints the same paper tables at
// -workers 1 and 4 (the corpus document, which names the worker count,
// is left out), and that -stream is an undefined flag (exit 2).
func TestStreamFeedsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generates feeds and loads them twice")
	}
	feedDir := filepath.Join(t.TempDir(), "feeds")
	if _, err := osdiversity.GenerateFeeds(feedDir, osdiversity.WithParallelism(4)); err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	tables := func(workers string) string {
		out, stderr, code := runOsdiv(t, "-feeds", feedDir, "-workers", workers, "tables", "-json")
		if code != 0 {
			t.Fatalf("-workers %s tables exit code %d, stderr: %s", workers, code, stderr)
		}
		_, docs, _ := strings.Cut(out, "\n")
		return docs
	}
	serial, parallel := tables("1"), tables("4")
	if serial != parallel {
		t.Errorf("-workers 4 tables differ from -workers 1\n got: %.300s\nwant: %.300s", parallel, serial)
	}
	if !strings.Contains(serial, `"os":"# distinct","valid":1887`) {
		t.Errorf("feed tables missing the paper's 1887 distinct count:\n%.1000s", serial)
	}

	_, stderr, code := runOsdiv(t, "-feeds", feedDir, "-stream", "tables")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -stream") {
		t.Errorf("-stream exit %d, stderr %q; want the undefined-flag exit 2", code, stderr)
	}
}

func TestParseServeFlags(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		opts, err := parseServeFlags(nil)
		if err != nil {
			t.Fatalf("parseServeFlags: %v", err)
		}
		if opts.addr != "127.0.0.1:8080" || opts.maxInFlight != 0 || opts.drainTimeout != 10*time.Second {
			t.Errorf("defaults = %+v", opts)
		}
		if opts.watch != "" || opts.watchInterval != 10*time.Second ||
			opts.tee != "" || opts.maxQueueWait != 5*time.Second {
			t.Errorf("reload defaults = %+v", opts)
		}
	})
	t.Run("custom", func(t *testing.T) {
		opts, err := parseServeFlags([]string{"-addr", ":9090", "-max-inflight", "7", "-drain", "3s"})
		if err != nil {
			t.Fatalf("parseServeFlags: %v", err)
		}
		if opts.addr != ":9090" || opts.maxInFlight != 7 || opts.drainTimeout != 3*time.Second {
			t.Errorf("custom = %+v", opts)
		}
	})
	t.Run("reload flags", func(t *testing.T) {
		opts, err := parseServeFlags([]string{
			"-watch", "deltas", "-watch-interval", "250ms",
			"-tee", "warm.osds", "-max-queue-wait", "2s",
		})
		if err != nil {
			t.Fatalf("parseServeFlags: %v", err)
		}
		if opts.watch != "deltas" || opts.watchInterval != 250*time.Millisecond ||
			opts.tee != "warm.osds" || opts.maxQueueWait != 2*time.Second {
			t.Errorf("reload flags = %+v", opts)
		}
	})
	for _, tt := range []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-frobnicate"}},
		{"trailing argument", []string{"extra"}},
		{"negative max-inflight", []string{"-max-inflight", "-3"}},
		{"empty addr", []string{"-addr", ""}},
		{"negative watch interval", []string{"-watch", "d", "-watch-interval", "-1s"}},
		{"non-positive queue wait", []string{"-max-queue-wait", "0s"}},
		{"tee without watch", []string{"-tee", "warm.osds"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := parseServeFlags(tt.args); err == nil {
				t.Errorf("parseServeFlags(%v) succeeded, want error", tt.args)
			}
		})
	}
}

// TestTablesJSONIdentity asserts `osdiv tables -t N -json` prints the
// same bytes the server answers — the contract the CI smoke step diffs.
func TestTablesJSONIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the corpus")
	}
	a, err := osdiversity.LoadCalibrated()
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	want3, err := httpapi.Marshal(server.BuildTable3(a))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	stdout, stderr, code := runOsdiv(t, "tables", "-t", "3", "-json")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if stdout != string(want3) {
		t.Errorf("tables -t 3 -json differs from server document\n got: %.200s\nwant: %.200s", stdout, want3)
	}

	stdout, stderr, code = runOsdiv(t, "tables", "-json")
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr)
	}
	if got := strings.Count(stdout, "\n"); got != 7 {
		t.Errorf("tables -json printed %d lines, want 7 (corpus provenance, then one document per table)", got)
	}
	first := stdout[:strings.IndexByte(stdout, '\n')+1]
	for _, want := range []string{`"source":"calibrated"`, `"engine":"bitset"`, `"epoch_unix":`} {
		if !strings.Contains(first, want) {
			t.Errorf("corpus line missing %s: %.300s", want, first)
		}
	}
	if strings.Contains(first, "snapshot_digest") {
		t.Errorf("feed-built corpus line reports a snapshot digest: %.300s", first)
	}
}

// TestSnapshotBootSmoke round-trips the calibrated corpus through a
// snapshot file and asserts `osdiv -snapshot` prints the same tables,
// reports the snapshot provenance, and refuses conflicting sources.
func TestSnapshotBootSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the corpus")
	}
	path := filepath.Join(t.TempDir(), "study.osds")
	if _, err := osdiversity.LoadCalibrated(osdiversity.WithSnapshot(path)); err != nil {
		t.Fatalf("LoadCalibrated(WithSnapshot): %v", err)
	}

	fromSnap, stderr, code := runOsdiv(t, "-snapshot", path, "tables", "-t", "3")
	if code != 0 {
		t.Fatalf("snapshot tables exit code %d, stderr: %s", code, stderr)
	}
	fromFeed, stderr, code := runOsdiv(t, "tables", "-t", "3")
	if code != 0 {
		t.Fatalf("calibrated tables exit code %d, stderr: %s", code, stderr)
	}
	if fromSnap != fromFeed {
		t.Errorf("-snapshot Table III differs from calibrated build\n got: %.300s\nwant: %.300s", fromSnap, fromFeed)
	}

	stdout, stderr, code := runOsdiv(t, "-snapshot", path, "tables", "-json")
	if code != 0 {
		t.Fatalf("snapshot tables -json exit code %d, stderr: %s", code, stderr)
	}
	first := stdout[:strings.IndexByte(stdout, '\n')+1]
	for _, want := range []string{`"source":"snapshot:`, `"snapshot_digest":"crc32c:`} {
		if !strings.Contains(first, want) {
			t.Errorf("snapshot corpus line missing %s: %.300s", want, first)
		}
	}

	_, stderr, code = runOsdiv(t, "-snapshot", path, "-feeds", "somewhere", "tables")
	if code == 0 {
		t.Fatal("-snapshot with -feeds succeeded, want failure")
	}
	if !strings.Contains(stderr, "cannot combine") {
		t.Errorf("stderr missing conflict diagnostic: %s", stderr)
	}

	_, stderr, code = runOsdiv(t, "-snapshot", filepath.Join(t.TempDir(), "absent.osds"), "tables")
	if code == 0 {
		t.Fatal("-snapshot with a missing file succeeded, want failure")
	}
}

var serveAddrRe = regexp.MustCompile(`on http://([0-9.:]+)`)

// TestServeSmoke boots the real `osdiv serve` through main(), queries
// it over TCP, and shuts it down with SIGTERM, asserting the graceful
// drain exits cleanly.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the corpus and binds a socket")
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(),
		"GO_OSDIV_MAIN=1",
		"GO_OSDIV_ARGS="+strings.Join([]string{"-workers", "2", "serve", "-addr", "127.0.0.1:0"}, "\x1f"))
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start serve: %v", err)
	}
	defer cmd.Process.Kill()

	// The startup log line names the bound address.
	var addr string
	var logged bytes.Buffer
	sc := bufio.NewScanner(stderrPipe)
	for sc.Scan() {
		line := sc.Text()
		logged.WriteString(line + "\n")
		if m := serveAddrRe.FindStringSubmatch(line); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listen address in serve output:\n%s", logged.String())
	}
	go io.Copy(io.Discard, stderrPipe)

	base := "http://" + addr
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "{\"status\":\"ok\"}\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}

	// The corpus loads asynchronously; queries gate on readiness.
	waitReady(t, base)

	resp, err = http.Get(base + "/api/table5?split=abc")
	if err != nil {
		t.Fatalf("GET bad table5: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"bad_param"`) {
		t.Errorf("bad split = %d %q, want 400 bad_param envelope", resp.StatusCode, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not drain within 15s of SIGTERM")
	}
}

// waitReady polls /readyz until the boot corpus is resident.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not become ready within 60s")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// startServe boots the real `osdiv serve` through main() and returns
// its base URL once the listener is up.
func startServe(t *testing.T, osdivArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(),
		"GO_OSDIV_MAIN=1",
		"GO_OSDIV_ARGS="+strings.Join(osdivArgs, "\x1f"))
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start serve: %v", err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	var addr string
	var logged bytes.Buffer
	sc := bufio.NewScanner(stderrPipe)
	for sc.Scan() {
		line := sc.Text()
		logged.WriteString(line + "\n")
		if m := serveAddrRe.FindStringSubmatch(line); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listen address in serve output:\n%s", logged.String())
	}
	go io.Copy(io.Discard, stderrPipe)
	return cmd, "http://" + addr
}

// TestServeReloadSmoke drives the live-epoch machinery through the real
// process: boot over feeds with a held-out delta, prove /admin/reload
// reports no_delta on an empty watch dir, hot-swap epoch 2 via SIGHUP
// once the delta lands, then feed a corrupt delta and assert the server
// degrades — old epoch still answering byte-identical tables, failure
// counted on /corpus — before draining cleanly on SIGTERM.
func TestServeReloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the corpus and binds a socket")
	}
	dir := t.TempDir()
	feeds, err := osdiversity.GenerateFeeds(filepath.Join(dir, "feeds"))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	if len(feeds) < 2 {
		t.Fatalf("calibrated corpus spans only %d feed files", len(feeds))
	}
	// Hold the newest feed year out of the boot corpus: it becomes the
	// delta a reload applies.
	watchDir := filepath.Join(dir, "delta")
	if err := os.MkdirAll(watchDir, 0o755); err != nil {
		t.Fatal(err)
	}
	heldOut := feeds[len(feeds)-1]
	parked := filepath.Join(dir, filepath.Base(heldOut))
	if err := os.Rename(heldOut, parked); err != nil {
		t.Fatalf("hold out delta feed: %v", err)
	}

	cmd, base := startServe(t,
		"-feeds", filepath.Join(dir, "feeds"), "-workers", "2",
		"serve", "-addr", "127.0.0.1:0", "-watch", watchDir, "-watch-interval", "0")
	waitReady(t, base)

	getJSON := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if status, body := getJSON("/corpus"); status != 200 || !strings.Contains(body, `"epoch":1`) {
		t.Fatalf("/corpus at boot = %d %s", status, body)
	}
	_, bootT3 := getJSON("/api/table3")

	// Empty watch dir: the admin trigger answers the typed 409.
	resp, err := http.Post(base+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /admin/reload: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), `"no_delta"`) {
		t.Fatalf("reload with empty watch dir = %d %q, want 409 no_delta", resp.StatusCode, body)
	}

	// Land the delta and reload via the operator path: SIGHUP.
	if err := os.Rename(parked, filepath.Join(watchDir, filepath.Base(parked))); err != nil {
		t.Fatalf("land delta feed: %v", err)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, body := getJSON("/corpus"); strings.Contains(body, `"epoch":2`) {
			break
		}
		if time.Now().After(deadline) {
			_, body := getJSON("/corpus")
			t.Fatalf("no epoch 2 within 60s of SIGHUP; /corpus: %s", body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	_, reloadedT3 := getJSON("/api/table3")
	if reloadedT3 == bootT3 {
		t.Error("table3 unchanged after applying the held-out delta year")
	}

	// Corrupt delta: the admin trigger fails, the epoch does not move,
	// and the query plane keeps answering the reloaded corpus.
	if err := os.WriteFile(filepath.Join(watchDir, "zz-corrupt.xml.gz"),
		[]byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The SIGHUP reload publishes epoch 2 before it releases the reload
	// lock, so a POST landing in between answers 409 reload_in_progress:
	// retry until the lock is free.
	for {
		resp, err = http.Post(base+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatalf("POST /admin/reload (corrupt): %v", err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), `"reload_in_progress"`) ||
			time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), `"reload_failed"`) {
		t.Fatalf("corrupt reload = %d %q, want 500 reload_failed", resp.StatusCode, body)
	}
	status, corpus := getJSON("/corpus")
	if status != 200 || !strings.Contains(corpus, `"epoch":2`) ||
		!strings.Contains(corpus, `"reload_failures":1`) {
		t.Fatalf("/corpus after corrupt reload = %d %s", status, corpus)
	}
	if status, body := getJSON("/api/table3"); status != 200 || body != reloadedT3 {
		t.Fatalf("table3 degraded after failed reload: status %d stable=%v", status, body == reloadedT3)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not drain within 15s of SIGTERM")
	}
}

// TestWatchFingerprint pins the poller's change detector: stable across
// no-ops, sensitive to added feed files, blind to non-feed noise.
func TestWatchFingerprint(t *testing.T) {
	dir := t.TempDir()
	fp0, err := watchFingerprint(dir)
	if err != nil || fp0 != "" {
		t.Fatalf("empty dir fingerprint = %q, %v", fp0, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.xml.gz"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fp1, err := watchFingerprint(dir)
	if err != nil || fp1 == "" {
		t.Fatalf("fingerprint after add = %q, %v", fp1, err)
	}
	fp2, _ := watchFingerprint(dir)
	if fp1 != fp2 {
		t.Error("fingerprint unstable across identical scans")
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fp3, _ := watchFingerprint(dir); fp3 != fp1 {
		t.Error("non-feed file changed the fingerprint")
	}
	if err := os.WriteFile(filepath.Join(dir, "b.xml"), []byte("z"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fp4, _ := watchFingerprint(dir); fp4 == fp1 {
		t.Error("second feed file did not change the fingerprint")
	}
}

func TestBareInvocationUsage(t *testing.T) {
	_, stderr, code := runOsdiv(t)
	if code != 2 {
		t.Fatalf("bare invocation exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage: osdiv") {
		t.Errorf("stderr missing usage line: %s", stderr)
	}
}

func TestUnknownSubcommandUsage(t *testing.T) {
	_, stderr, code := runOsdiv(t, "frobnicate")
	if code != 2 {
		t.Fatalf("unknown subcommand exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage: osdiv") {
		t.Errorf("stderr missing usage line: %s", stderr)
	}
}

func TestUnknownTableFails(t *testing.T) {
	_, stderr, code := runOsdiv(t, "tables", "-t", "9")
	if code == 0 {
		t.Fatal("tables -t 9 succeeded, want failure")
	}
	if !strings.Contains(stderr, "unknown table") {
		t.Errorf("stderr missing diagnostic: %s", stderr)
	}
}
