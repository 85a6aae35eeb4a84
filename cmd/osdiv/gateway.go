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
	"strings"
	"syscall"
	"time"

	"osdiversity/internal/gather"
	"osdiversity/internal/httpapi"
)

// gatewayOptions are the flags of the gateway subcommand.
type gatewayOptions struct {
	addr         string
	backends     []string
	timeout      time.Duration
	retries      int
	maxInFlight  int
	maxQueueWait time.Duration
	revalidate   time.Duration
	drainTimeout time.Duration
}

// parseGatewayFlags parses the gateway subcommand's flags. Errors come
// back to the caller (and the tests) instead of exiting.
func parseGatewayFlags(args []string) (gatewayOptions, error) {
	fs := flag.NewFlagSet("gateway", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: osdiv gateway -backends url1,url2,... [options]")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
	}
	opts := gatewayOptions{}
	var backends string
	fs.StringVar(&opts.addr, "addr", "127.0.0.1:8090", "listen address")
	fs.StringVar(&backends, "backends", "",
		"comma-separated shard base URLs in shard order (http://host:port,...)")
	fs.DurationVar(&opts.timeout, "timeout", 30*time.Second,
		"per-backend request attempt timeout")
	fs.IntVar(&opts.retries, "retries", 3,
		"per-backend GET attempts on transient failures (connection refused/reset, timeouts, 503)")
	fs.IntVar(&opts.maxInFlight, "max-inflight", 0,
		"bound on concurrently executing merged computations (0 = 2x backend count)")
	fs.DurationVar(&opts.maxQueueWait, "max-queue-wait", 5*time.Second,
		"how long a query may wait for a compute slot before 503 + Retry-After")
	fs.DurationVar(&opts.revalidate, "revalidate", 100*time.Millisecond,
		"how long a resolved shard epoch vector stays fresh before the next /readyz probe (negative = probe every request)")
	fs.DurationVar(&opts.drainTimeout, "drain", 10*time.Second,
		"graceful shutdown deadline after SIGTERM/SIGINT")
	if err := fs.Parse(args); err != nil {
		return gatewayOptions{}, fmt.Errorf("gateway: %w", err)
	}
	if fs.NArg() > 0 {
		return gatewayOptions{}, fmt.Errorf("gateway: unexpected argument %q", fs.Arg(0))
	}
	if opts.addr == "" {
		return gatewayOptions{}, errors.New("gateway: -addr must not be empty")
	}
	for _, b := range strings.Split(backends, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if !strings.HasPrefix(b, "http://") && !strings.HasPrefix(b, "https://") {
			return gatewayOptions{}, fmt.Errorf("gateway: backend %q is not an http(s) URL", b)
		}
		opts.backends = append(opts.backends, strings.TrimRight(b, "/"))
	}
	if len(opts.backends) == 0 {
		return gatewayOptions{}, errors.New("gateway: -backends must list at least one shard URL")
	}
	if opts.retries < 1 {
		return gatewayOptions{}, fmt.Errorf("gateway: -retries %d must be >= 1", opts.retries)
	}
	if opts.maxInFlight < 0 {
		return gatewayOptions{}, fmt.Errorf("gateway: -max-inflight %d must be >= 0", opts.maxInFlight)
	}
	if opts.maxQueueWait <= 0 {
		return gatewayOptions{}, fmt.Errorf("gateway: -max-queue-wait %s must be > 0", opts.maxQueueWait)
	}
	return opts, nil
}

// runGateway starts the scatter-gather front-end over the configured
// shard backends. The gateway holds no corpus: it answers as soon as
// the listener is up, and /readyz aggregates the backends' readiness.
// Blocks until SIGTERM/SIGINT, then drains in-flight requests.
func runGateway(args []string) error {
	opts, err := parseGatewayFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil // usage already printed
	}
	if err != nil {
		return err
	}

	gw, err := gather.New(gather.Config{
		Backends:        opts.backends,
		Timeout:         opts.timeout,
		Retry:           httpapi.RetryPolicy{Attempts: opts.retries},
		MaxInFlight:     opts.maxInFlight,
		MaxQueueWait:    opts.maxQueueWait,
		RevalidateAfter: opts.revalidate,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("gateway on http://%s scattering to %d backends: %s",
		ln.Addr(), len(opts.backends), strings.Join(opts.backends, ", "))

	select {
	case err := <-errc:
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
