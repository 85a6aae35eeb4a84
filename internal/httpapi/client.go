package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"syscall"
	"time"
)

// Error is a decoded server error envelope. StatusCode is the HTTP
// status the server answered with.
type Error struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("httpapi: %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// RetryPolicy bounds the client's backoff loop on transient errors.
// The zero value disables retries (one attempt).
type RetryPolicy struct {
	Attempts  int           // total attempts, including the first
	BaseDelay time.Duration // first backoff (default 50ms when retrying)
	MaxDelay  time.Duration // backoff cap (default 1s when retrying)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// Client talks to an osdiv server. The zero HTTP field selects
// http.DefaultClient; the zero Timeout applies none; the zero Retry
// makes every request single-shot.
//
// Retries apply to idempotent GETs only, and only on transient
// failures: connection refused/reset (a server mid-restart), truncated
// responses, net timeouts, and 503 (an overloaded or not-yet-ready
// server). Non-idempotent admin calls are never retried — a reload that
// timed out may still be running.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport (httptest servers pass their own).
	HTTP *http.Client
	// Timeout bounds each request attempt (not the whole retry loop).
	Timeout time.Duration
	// Retry bounds the transient-error retry loop for GETs.
	Retry RetryPolicy

	// sleep substitutes the backoff sleep in tests; nil selects
	// time.Sleep.
	sleep func(time.Duration)
}

// NewClient returns a client for the server at base. Only tests call it
// (server's and httpapi's); the gateway fills a Client literal.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) sleepFn() func(time.Duration) {
	if c.sleep != nil {
		return c.sleep
	}
	return time.Sleep
}

// transientNetError reports whether a transport-level failure is worth
// retrying: the connection conditions of a server that is restarting,
// draining, or briefly saturated.
func transientNetError(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// transientFailure extends transientNetError with the one retryable
// HTTP status: 503, which the server answers while booting (/readyz)
// and while shedding load (Retry-After).
func transientFailure(err error) bool {
	var he *Error
	if errors.As(err, &he) {
		return he.StatusCode == http.StatusServiceUnavailable
	}
	return transientNetError(err)
}

func clientJitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

// url joins the base with a path and query.
func (c *Client) url(path string, query url.Values) string {
	u := c.Base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	return u
}

// readResponse drains one response, returning the 200 body and the
// X-Osdiv-Epoch header; a non-200 decodes its error envelope into
// *Error (the epoch still returns, when the server sent one).
func readResponse(resp *http.Response) ([]byte, string, error) {
	defer resp.Body.Close()
	epoch := resp.Header.Get("X-Osdiv-Epoch")
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, epoch, err
	}
	if resp.StatusCode != http.StatusOK {
		var env ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			return nil, epoch, &Error{StatusCode: resp.StatusCode, Code: "malformed_error",
				Message: string(body)}
		}
		return nil, epoch, &Error{StatusCode: resp.StatusCode, Code: env.Error.Code,
			Message: env.Error.Message}
	}
	return body, epoch, nil
}

// attempt runs one HTTP request and decodes the error envelope of a
// non-200 response into *Error.
func (c *Client) attempt(ctx context.Context, method, u string) ([]byte, string, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, "", err
	}
	return readResponse(resp)
}

// GetRaw fetches a path (with optional query) and returns the raw body
// bytes of a 200 response, retrying transient failures per the client's
// policy. Non-200 responses decode into *Error. Only server's tests call
// it.
func (c *Client) GetRaw(path string, query url.Values) ([]byte, error) {
	body, _, err := c.GetRawEpochContext(context.Background(), path, query)
	return body, err
}

// GetRawEpochContext is GetRaw under a caller context, returning the
// X-Osdiv-Epoch header alongside the body — the gateway verifies every
// scattered leg's epoch against the resolved shard vector. The context
// spans the whole retry loop, the per-attempt Timeout each attempt.
func (c *Client) GetRawEpochContext(ctx context.Context, path string, query url.Values) ([]byte, string, error) {
	u := c.url(path, query)
	retry := c.Retry.withDefaults()
	delay := retry.BaseDelay
	for attempt := 1; ; attempt++ {
		body, epoch, err := c.attempt(ctx, http.MethodGet, u)
		if err == nil {
			return body, epoch, nil
		}
		if attempt >= retry.Attempts || !transientFailure(err) || ctx.Err() != nil {
			return nil, epoch, err
		}
		select {
		case <-ctx.Done():
			return nil, epoch, ctx.Err()
		default:
		}
		c.sleepFn()(clientJitter(delay))
		if delay *= 2; delay > retry.MaxDelay {
			delay = retry.MaxDelay
		}
	}
}

// PostJSON POSTs a JSON-encoded body and returns the raw 200 body.
// POSTs are never retried, whatever the client's policy: the admin calls
// they carry are not idempotent. Only server's tests call it.
func (c *Client) PostJSON(path string, body any) ([]byte, error) {
	raw, _, err := c.PostJSONEpochContext(context.Background(), path, body)
	return raw, err
}

// PostJSONEpochContext is PostJSON under a caller context, returning the
// X-Osdiv-Epoch header alongside the body.
func (c *Client) PostJSONEpochContext(ctx context.Context, path string, body any) ([]byte, string, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, "", err
	}
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path, nil), bytes.NewReader(payload))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, "", err
	}
	return readResponse(resp)
}

// Query POSTs one SELECT to /api/query and decodes the result document
// (available when the server was started over an imported database).
// Only server's tests call it.
func (c *Client) Query(sql string, args ...any) (QueryResult, error) {
	var out QueryResult
	body, err := c.PostJSON("/api/query", QueryRequest{SQL: sql, Args: args})
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("httpapi: decode /api/query: %w", err)
	}
	return out, nil
}

// Recommend POSTs a dynamic-diversity search spec to /api/recommend
// and decodes the ranked-schedule document. Only server's tests call
// it.
func (c *Client) Recommend(req RecommendRequest) (Recommend, error) {
	var out Recommend
	body, err := c.PostJSON("/api/recommend", req)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("httpapi: decode /api/recommend: %w", err)
	}
	return out, nil
}

// get fetches and decodes a document.
func get[T any](c *Client, path string, query url.Values) (T, error) {
	var out T
	body, err := c.GetRaw(path, query)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("httpapi: decode %s: %w", path, err)
	}
	return out, nil
}

// Health fetches /healthz. Only tests call it (server's and httpapi's).
func (c *Client) Health() (Health, error) { return get[Health](c, "/healthz", nil) }

// Corpus fetches /corpus. Only server's tests call it.
func (c *Client) Corpus() (CorpusInfo, error) { return get[CorpusInfo](c, "/corpus", nil) }

// Reload POSTs /admin/reload and decodes the swap result. Never
// retried; a timed-out reload may still complete server-side. Only
// tests call it (server's and httpapi's).
func (c *Client) Reload() (ReloadResult, error) {
	var out ReloadResult
	body, _, err := c.attempt(context.Background(), http.MethodPost, c.url("/admin/reload", nil))
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("httpapi: decode /admin/reload: %w", err)
	}
	return out, nil
}
