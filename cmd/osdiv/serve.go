package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"osdiversity"
	"osdiversity/internal/classify"
	"osdiversity/internal/corpus"
	"osdiversity/internal/epoch"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// serveOptions are the flags of the serve subcommand.
type serveOptions struct {
	addr          string
	maxInFlight   int
	drainTimeout  time.Duration
	watch         string
	watchInterval time.Duration
	tee           string
	maxQueueWait  time.Duration
	shard         string
}

// parseShardSpec parses a -shard "i/N" spec: which of N deterministic
// year-range slices this backend owns, 1-based.
func parseShardSpec(spec string) (i, n int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("serve: -shard %q is not i/N", spec)
	}
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("serve: -shard %q needs 1 <= i <= N", spec)
	}
	return i, n, nil
}

// parseServeFlags parses the serve subcommand's flags. Errors come back
// to the caller (and the tests) instead of exiting.
func parseServeFlags(args []string) (serveOptions, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: osdiv [-db file | -feeds dir | -synthetic n] [-workers n] serve [options]")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
	}
	opts := serveOptions{}
	fs.StringVar(&opts.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&opts.maxInFlight, "max-inflight", 0,
		"bound on concurrently executing query computations (0 = worker count)")
	fs.DurationVar(&opts.drainTimeout, "drain", 10*time.Second,
		"graceful shutdown deadline after SIGTERM/SIGINT")
	fs.StringVar(&opts.watch, "watch", "",
		"delta feed directory: its *.xml* files hot-reload the corpus on SIGHUP, POST /admin/reload, or the poll below")
	fs.DurationVar(&opts.watchInterval, "watch-interval", 10*time.Second,
		"poll period for -watch directory changes (0 disables polling; SIGHUP and /admin/reload still work)")
	fs.StringVar(&opts.tee, "tee", "",
		"tee every successfully reloaded epoch to this snapshot file (default: the -snapshot boot path, if any)")
	fs.DurationVar(&opts.maxQueueWait, "max-queue-wait", 5*time.Second,
		"how long a query may wait for a compute slot before 503 + Retry-After")
	fs.StringVar(&opts.shard, "shard", "",
		"serve shard i/N: own the i-th of N deterministic year-range corpus slices (behind an osdiv gateway)")
	if err := fs.Parse(args); err != nil {
		return serveOptions{}, fmt.Errorf("serve: %w", err)
	}
	if fs.NArg() > 0 {
		return serveOptions{}, fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	if opts.addr == "" {
		return serveOptions{}, errors.New("serve: -addr must not be empty")
	}
	if opts.maxInFlight < 0 {
		return serveOptions{}, fmt.Errorf("serve: -max-inflight %d must be >= 0", opts.maxInFlight)
	}
	if opts.watchInterval < 0 {
		return serveOptions{}, fmt.Errorf("serve: -watch-interval %s must be >= 0", opts.watchInterval)
	}
	if opts.maxQueueWait <= 0 {
		return serveOptions{}, fmt.Errorf("serve: -max-queue-wait %s must be > 0", opts.maxQueueWait)
	}
	if opts.tee != "" && opts.watch == "" {
		return serveOptions{}, errors.New("serve: -tee needs -watch (it snapshots reloaded epochs)")
	}
	if opts.shard != "" {
		if _, _, err := parseShardSpec(opts.shard); err != nil {
			return serveOptions{}, err
		}
		if opts.watch != "" {
			return serveOptions{}, errors.New("serve: -shard cannot combine with -watch (shards reload by restarting; the gateway tracks epochs per shard)")
		}
	}
	return opts, nil
}

// buildShardDB builds the in-memory database a sharded SQL backend
// serves: the source file's entries, sliced by the same deterministic
// year-range split the analysis shard uses, re-imported into a fresh
// store. Dimension tables seed identically in every shard database, so
// the gateway can merge /api/sqltable3 matrices per index; fact rows
// are the shard's slice only, so concatenated /api/query row sets
// reproduce the full table scan.
func buildShardDB(dbPath, spec string) (*vulndb.DB, error) {
	i, n, err := parseShardSpec(spec)
	if err != nil {
		return nil, err
	}
	src, err := vulndb.Open(dbPath)
	if err != nil {
		return nil, err
	}
	entries, err := src.Entries()
	if err != nil {
		return nil, err
	}
	slice := corpus.ShardByYear(entries, i-1, n)
	db, err := vulndb.Create()
	if err != nil {
		return nil, err
	}
	if _, _, err := db.LoadEntries(slice, classify.NewClassifier()); err != nil {
		return nil, err
	}
	return db, nil
}

// sourceName describes the loaded corpus for the /corpus endpoint.
func sourceName(cfg loadConfig) string {
	switch {
	case cfg.snapshot != "":
		return "snapshot:" + cfg.snapshot
	case cfg.synthetic > 0:
		return fmt.Sprintf("synthetic:%d", cfg.synthetic)
	case cfg.db != "":
		return "db:" + cfg.db
	case cfg.feeds != "":
		return "feeds:" + cfg.feeds
	default:
		return "calibrated"
	}
}

// globDeltaFeeds lists the reloadable feed files under the watch
// directory, sorted for a deterministic apply order.
func globDeltaFeeds(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.xml*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// watchFingerprint summarizes the watch directory's reloadable content
// (name, size, mtime per feed file) so the poller only triggers builds
// when something actually changed. Computed before a reload starts and
// remembered only after it succeeds: a failed reload stays "dirty" and
// is retried — with a fresh failure count on /corpus — every tick.
func watchFingerprint(dir string) (string, error) {
	paths, err := globDeltaFeeds(dir)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			// A feed vanishing mid-scan (partial rsync) reads as a
			// different fingerprint next tick; skip it for now.
			continue
		}
		fmt.Fprintf(&b, "%s|%d|%d\n", p, st.Size(), st.ModTime().UnixNano())
	}
	return b.String(), nil
}

// runServe starts the resident query server, loading the boot corpus in
// the background (the listener and /healthz come up immediately;
// /readyz flips once the corpus is resident). With -watch it hot-
// reloads delta feeds on SIGHUP, POST /admin/reload, and a directory
// poll, degrading to the previous epoch on any failure. Blocks until
// SIGTERM/SIGINT, then drains in-flight requests.
func runServe(cfg loadConfig, args []string) error {
	opts, err := parseServeFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil // usage already printed
	}
	if err != nil {
		return err
	}
	if opts.shard != "" {
		// The slice is taken over the corpus's entries, which a snapshot
		// boot never holds.
		if cfg.snapshot != "" {
			return errors.New("serve: -shard cannot combine with -snapshot (shard from feeds or a database)")
		}
		cfg.shard = opts.shard
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) // mirrors WithParallelism(0)
	}
	teePath := opts.tee
	if teePath == "" {
		// Booting from a snapshot and reloading deltas over it would
		// leave the file stale; keep it current by default.
		teePath = cfg.snapshot
	}

	mgr := epoch.NewManager(epoch.Config{Logf: log.Printf})
	srvCfg := server.Config{
		Source:       sourceName(cfg),
		Workers:      workers,
		DBPath:       cfg.db,
		MaxInFlight:  opts.maxInFlight,
		MaxQueueWait: opts.maxQueueWait,
		Shard:        opts.shard,
	}
	if opts.shard != "" && cfg.db != "" {
		// A sharded SQL backend must answer /api/query and /api/sqltable3
		// over its slice only; the full file would leak other shards'
		// rows, so a fresh in-memory database over the sliced entries is
		// injected instead of opening DBPath lazily.
		srvCfg.DBPath = ""
	}
	srv := server.NewResident(mgr, srvCfg)

	// reloadOnce is the single trigger all three reload paths share:
	// glob the watch directory, then stream its feeds through ApplyDelta
	// against whatever epoch is current, teeing the merged snapshot when
	// configured. An empty directory is not a failure — there is simply
	// nothing to do yet.
	reloadOnce := func() (*epoch.Epoch, error) {
		deltas, err := globDeltaFeeds(opts.watch)
		if err != nil {
			return nil, err
		}
		if len(deltas) == 0 {
			return nil, epoch.ErrNoDelta
		}
		return mgr.TryReload("delta:"+opts.watch, func(cur *osdiversity.Analysis) (*osdiversity.Analysis, error) {
			dopts := []osdiversity.Option{}
			if teePath != "" {
				dopts = append(dopts, osdiversity.WithSnapshot(teePath))
			}
			return cur.ApplyDelta(deltas, dopts...)
		})
	}
	if opts.watch != "" {
		srv.SetReloader(reloadOnce)
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// A resident server must not let half-open or stalled
		// connections pin goroutines and descriptors forever. The
		// write budget is generous because /api/mostshared streams
		// multi-MB bodies to legitimate slow readers.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Boot corpus loads off the serving path: probes answer immediately,
	// queries answer 503 not_ready until the first epoch installs.
	bootc := make(chan error, 1)
	go func() {
		a, err := loadAnalysis(cfg)
		if err != nil {
			bootc <- fmt.Errorf("boot load: %w", err)
			return
		}
		if opts.shard != "" && cfg.db != "" {
			db, err := buildShardDB(cfg.db, opts.shard)
			if err != nil {
				bootc <- fmt.Errorf("boot shard db: %w", err)
				return
			}
			srv.SetDatabase(db) // before Install: readiness gates on the epoch
		}
		ep := mgr.Install(a, sourceName(cfg))
		log.Printf("corpus resident: epoch=%d source=%s valid=%d shard=%q",
			ep.Seq, ep.Source, a.ValidCount(), opts.shard)
	}()

	if opts.watch != "" {
		// SIGHUP: the operator's reload trigger.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-ctx.Done():
					signal.Stop(hup)
					return
				case <-hup:
					if _, err := reloadOnce(); err != nil {
						log.Printf("SIGHUP reload: %v", err)
					}
				}
			}
		}()

		// Directory poll: pick up delta feeds without operator action.
		if opts.watchInterval > 0 {
			go func() {
				tick := time.NewTicker(opts.watchInterval)
				defer tick.Stop()
				var applied string
				for {
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
					}
					fp, err := watchFingerprint(opts.watch)
					if err != nil {
						log.Printf("watch %s: %v", opts.watch, err)
						continue
					}
					if fp == applied || fp == "" {
						continue
					}
					switch _, err := reloadOnce(); {
					case err == nil:
						applied = fp
					case errors.Is(err, epoch.ErrReloadInProgress):
						// Another trigger is mid-reload; re-evaluate next tick.
					default:
						log.Printf("watch reload: %v", err)
					}
				}
			}()
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("serving %s on http://%s (workers=%d watch=%q)",
		sourceName(cfg), ln.Addr(), workers, opts.watch)

	select {
	case err := <-errc:
		return err
	case err := <-bootc: // only ever carries a failed boot
		hs.Close()
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received, draining (deadline %s)", opts.drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Print("drained, bye")
	return nil
}
