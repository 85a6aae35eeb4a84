package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler answers 503 with the typed envelope until `after`
// requests have arrived, then 200.
func flakyHandler(after int, hits *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if int(n) < after {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			b, _ := Marshal(ErrorEnvelope{Error: ErrorBody{Code: "overloaded", Message: "busy"}})
			w.Write(b)
			return
		}
		b, _ := Marshal(Health{Status: "ok"})
		w.Write(b)
	})
}

func TestGetRetriesTransient503(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(flakyHandler(3, &hits))
	defer srv.Close()

	var slept []time.Duration
	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	c.sleep = func(d time.Duration) { slept = append(slept, d) }

	h, err := c.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
	if len(slept) != 2 {
		t.Errorf("slept %d times, want 2", len(slept))
	}
}

func TestGetRetriesAreBounded(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(flakyHandler(100, &hits))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond}
	c.sleep = func(time.Duration) {}

	_, err := c.Health()
	var he *Error
	if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 *Error", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
}

func TestGetDoesNotRetryPermanentErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		b, _ := Marshal(ErrorEnvelope{Error: ErrorBody{Code: "bad_param", Message: "no"}})
		w.Write(b)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond}
	c.sleep = func(time.Duration) { t.Error("slept for a permanent error") }

	if _, err := c.Health(); err == nil {
		t.Fatal("Health succeeded, want 400")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (no retry on 400)", got)
	}
}

func TestGetRetriesConnectionRefused(t *testing.T) {
	// A server that is down: bind, learn the port, close.
	srv := httptest.NewServer(http.NotFoundHandler())
	base := srv.URL
	srv.Close()

	c := NewClient(base)
	c.Retry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond}
	attempts := 0
	c.sleep = func(time.Duration) { attempts++ }

	if _, err := c.Health(); err == nil {
		t.Fatal("Health against closed server succeeded")
	}
	if attempts != 2 {
		t.Errorf("retried %d times, want 2 (3 bounded attempts)", attempts)
	}
}

func TestPostNeverRetries(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(flakyHandler(100, &hits))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond}
	c.sleep = func(time.Duration) { t.Error("a POST slept to retry") }

	_, err := c.Reload()
	var he *Error
	if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 *Error", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want exactly 1", got)
	}
}

func TestContextCancelStopsRetryLoop(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(flakyHandler(100, &hits))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{Attempts: 100, BaseDelay: time.Millisecond}
	c.sleep = func(time.Duration) { cancel() }

	if _, _, err := c.GetRawEpochContext(ctx, "/healthz", nil); err == nil {
		t.Fatal("canceled retry loop succeeded")
	}
	if got := hits.Load(); got > 2 {
		t.Errorf("server saw %d requests after cancel, want <= 2", got)
	}
}

func TestPerAttemptTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)

	c := NewClient(srv.URL)
	c.Timeout = 20 * time.Millisecond
	start := time.Now()
	if _, err := c.Health(); err == nil {
		t.Fatal("Health against a hung server succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("timeout took %v", took)
	}
}
