package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"wdpt/internal/server"
)

// statusServer answers every request with status, retryAfter as Retry-After
// and a typed error payload, counting arrivals.
func statusServer(t *testing.T, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(`{"error":{"code":"overloaded","message":"busy"}}`))
	}))
	t.Cleanup(s.Close)
	return s, &hits
}

// TestRetryDisabledByDefault pins that a throttled response costs exactly
// one exchange: the client never retries.
func TestRetryDisabledByDefault(t *testing.T) {
	srv, hits := statusServer(t, http.StatusTooManyRequests, "2")
	if _, err := New(srv.URL, nil).Health(context.Background()); err == nil {
		t.Fatal("Health on a throttled server succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1", got)
	}
}

// TestRetryQueryReturnsThrottledResultAsData pins that Query surfaces a 429
// as data — status, typed payload and Retry-After — after one exchange.
func TestRetryQueryReturnsThrottledResultAsData(t *testing.T) {
	srv, hits := statusServer(t, http.StatusTooManyRequests, "1")
	qr, err := New(srv.URL, nil).Query(context.Background(), server.Request{Dataset: "d", Query: "SELECT ?x WHERE r(?x)"})
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
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1", got)
	}
}

// TestRetryNonRetryableStatusReturnsImmediately pins that a 400 is an error
// after one exchange.
func TestRetryNonRetryableStatusReturnsImmediately(t *testing.T) {
	srv, hits := statusServer(t, http.StatusBadRequest, "")
	if _, err := New(srv.URL, nil).Health(context.Background()); err == nil {
		t.Fatal("Health on a 400-serving endpoint succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1", got)
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
