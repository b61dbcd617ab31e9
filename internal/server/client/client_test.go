package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wdpt/internal/obs"
	"wdpt/internal/server"
)

// throttlingServer serves retryable statuses for the first fail requests,
// then a fixed 200 JSON body, recording every arrival.
func throttlingServer(t *testing.T, fail int, status int, retryAfter string, body string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= int64(fail) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			_, _ = w.Write([]byte(`{"error":{"code":"overloaded","message":"busy"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(s.Close)
	return s, &hits
}

// pinned installs a deterministic sleep/jitter pair: jitter always returns
// 1.0 (so each backoff equals its full step, no randomness) and sleep
// records the requested delays instead of waiting.
func pinned(c *Client) (*Client, *[]time.Duration) {
	out := *c
	var slept []time.Duration
	out.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	out.jitter = func() float64 { return 1.0 }
	return &out, &slept
}

func TestRetryScheduleDeterministic(t *testing.T) {
	srv, hits := throttlingServer(t, 3, http.StatusTooManyRequests, "", `{"status":"ok","version":1}`)
	st := obs.NewStats()
	c, slept := pinned(New(srv.URL, nil).WithStats(st).WithRetry(RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	}))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health with retries: %v", err)
	}
	if got := hits.Load(); got != 4 {
		t.Errorf("server saw %d requests, want 4 (3 throttled + 1 success)", got)
	}
	// With jitter pinned to 1.0 the schedule is exactly the doubling
	// ladder: 100ms, 200ms, 400ms.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i, d := range want {
		if (*slept)[i] != d {
			t.Errorf("backoff %d = %v, want %v", i, (*slept)[i], d)
		}
	}
	snap := st.Snapshot()
	if snap["client.attempts"] != 4 || snap["client.retries"] != 3 || snap["client.retry_giveups"] != 0 {
		t.Errorf("counters = attempts %d retries %d giveups %d, want 4/3/0",
			snap["client.attempts"], snap["client.retries"], snap["client.retry_giveups"])
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	srv, _ := throttlingServer(t, 1, http.StatusTooManyRequests, "1", `{"status":"ok","version":1}`)
	c, slept := pinned(New(srv.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond}))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	// Retry-After: 1 (second) dominates the 10ms backoff step.
	if len(*slept) != 1 || (*slept)[0] != time.Second {
		t.Errorf("slept %v, want [1s]", *slept)
	}
}

func TestRetryCapsAtMaxDelay(t *testing.T) {
	srv, _ := throttlingServer(t, 6, http.StatusServiceUnavailable, "", `{"status":"ok","version":1}`)
	c, slept := pinned(New(srv.URL, nil).WithRetry(RetryPolicy{
		MaxAttempts: 7,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
	}))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		500 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond,
	}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i, d := range want {
		if (*slept)[i] != d {
			t.Errorf("backoff %d = %v, want %v", i, (*slept)[i], d)
		}
	}
}

func TestRetryGivesUpAndCounts(t *testing.T) {
	srv, hits := throttlingServer(t, 100, http.StatusTooManyRequests, "", "")
	st := obs.NewStats()
	c, _ := pinned(New(srv.URL, nil).WithStats(st).WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("Health on a permanently throttled server succeeded")
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
	snap := st.Snapshot()
	if snap["client.attempts"] != 3 || snap["client.retries"] != 2 || snap["client.retry_giveups"] != 1 {
		t.Errorf("counters = attempts %d retries %d giveups %d, want 3/2/1",
			snap["client.attempts"], snap["client.retries"], snap["client.retry_giveups"])
	}
}

func TestRetryDisabledByDefault(t *testing.T) {
	srv, hits := throttlingServer(t, 100, http.StatusTooManyRequests, "2", "")
	st := obs.NewStats()
	c, slept := pinned(New(srv.URL, nil).WithStats(st))
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("Health on a throttled server succeeded without retries")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (no retries by default)", got)
	}
	if len(*slept) != 0 {
		t.Errorf("client slept %v without a retry policy", *slept)
	}
	snap := st.Snapshot()
	if snap["client.attempts"] != 1 || snap["client.retries"] != 0 || snap["client.retry_giveups"] != 0 {
		t.Errorf("counters = attempts %d retries %d giveups %d, want 1/0/0",
			snap["client.attempts"], snap["client.retries"], snap["client.retry_giveups"])
	}
}

func TestRetryQueryReturnsThrottledResultAsData(t *testing.T) {
	srv, hits := throttlingServer(t, 100, http.StatusTooManyRequests, "1", "")
	c, _ := pinned(New(srv.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}))
	qr, err := c.Query(context.Background(), server.Request{Dataset: "d", Query: "SELECT ?x WHERE r(?x)"})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if qr.Status != http.StatusTooManyRequests {
		t.Errorf("Query status = %d, want 429", qr.Status)
	}
	if qr.Err == nil || qr.Err.Code != "overloaded" {
		t.Errorf("Query error payload = %+v, want code overloaded", qr.Err)
	}
	if qr.RetryAfter != "1" {
		t.Errorf("RetryAfter = %q, want 1", qr.RetryAfter)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2", got)
	}
}

func TestRetryNonRetryableStatusReturnsImmediately(t *testing.T) {
	srv, hits := throttlingServer(t, 100, http.StatusBadRequest, "", "")
	c, slept := pinned(New(srv.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}))
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("Health on a 400-serving endpoint succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (400 is not retryable)", got)
	}
	if len(*slept) != 0 {
		t.Errorf("client slept %v on a non-retryable status", *slept)
	}
}

func TestRetryStopsOnCanceledContext(t *testing.T) {
	srv, hits := throttlingServer(t, 100, http.StatusTooManyRequests, "", "")
	base := New(srv.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	c := *base
	c.jitter = func() float64 { return 0 }
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // the cancellation lands while backing off
		return ctx.Err()
	}
	if _, err := c.Health(ctx); err == nil {
		t.Fatal("Health survived a context cancellation during backoff")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (canceled during first backoff)", got)
	}
}

const reportBody = `{"mode":"enumerate","engine":"auto","answer_count":0}`

func TestEndpointStatsSplitPerEndpoint(t *testing.T) {
	a, _ := throttlingServer(t, 0, 0, "", reportBody)
	attempts := obs.NewCounterVec(obs.CVecClientEndpointAttempts, "endpoint")
	failures := obs.NewCounterVec(obs.CVecClientEndpointFailures, "endpoint")

	good := New(a.URL, nil).WithEndpointStats(attempts, failures)
	if _, err := good.Query(context.Background(), server.Request{Dataset: "d", Query: "q"}); err != nil {
		t.Fatalf("Query: %v", err)
	}

	// A closed server: every attempt is a transport failure.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	bad := New(deadURL, nil).WithEndpointStats(attempts, failures)
	if _, err := bad.Query(context.Background(), server.Request{Dataset: "d", Query: "q"}); err == nil {
		t.Fatal("Query against closed server: want transport error")
	}

	if got := attempts.Get(a.URL); got != 1 {
		t.Fatalf("attempts{%s} = %d, want 1", a.URL, got)
	}
	if got := failures.Get(a.URL); got != 0 {
		t.Fatalf("failures{%s} = %d, want 0", a.URL, got)
	}
	if got := attempts.Get(deadURL); got != 1 {
		t.Fatalf("attempts{%s} = %d, want 1", deadURL, got)
	}
	if got := failures.Get(deadURL); got != 1 {
		t.Fatalf("failures{%s} = %d, want 1", deadURL, got)
	}
}

func TestEndpointFailureCounts5xxAndThrottle(t *testing.T) {
	srv, _ := throttlingServer(t, 1, http.StatusServiceUnavailable, "", reportBody)
	attempts := obs.NewCounterVec(obs.CVecClientEndpointAttempts, "endpoint")
	failures := obs.NewCounterVec(obs.CVecClientEndpointFailures, "endpoint")
	c, _ := pinned(New(srv.URL, nil).WithEndpointStats(attempts, failures).WithRetry(RetryPolicy{MaxAttempts: 3}))
	if _, err := c.Query(context.Background(), server.Request{Dataset: "d", Query: "q"}); err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Attempt 1 hit the 503 (a failure), attempt 2 succeeded.
	if got := attempts.Get(srv.URL); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	if got := failures.Get(srv.URL); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
}

func TestNewDefaultsToTimeoutBearingClient(t *testing.T) {
	c := New("http://example.invalid", nil)
	if c.hc == http.DefaultClient {
		t.Fatal("New(nil) must not use http.DefaultClient")
	}
	if c.hc.Timeout == 0 {
		t.Fatal("New(nil) client must carry a non-zero Timeout")
	}
}
