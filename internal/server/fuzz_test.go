package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wdpt/internal/db"
	"wdpt/internal/server"
)

// FuzzQueryRequest feeds arbitrary bytes to POST /v1/query twice, on a
// 4-fact dataset and under a 200 ms request deadline. The handler must
// never panic, both sends must get the same status, and the two bodies
// must be byte-identical unless a deadline or budget tripped. The second
// send of a cacheable 200 is a cache hit, so this also pins hit ≡ miss for
// whatever request documents the fuzzer reaches. The seed corpus is under
// testdata/fuzz/FuzzQueryRequest.
func FuzzQueryRequest(f *testing.F) {
	d := db.New()
	d.Insert("E", "a", "b")
	d.Insert("E", "b", "c")
	d.Insert("R", "a")
	d.Insert("S", "a", "b")
	srv := newTestServer(f, server.Config{MaxInFlight: 4, CacheSize: 64, WidthBound: 2},
		map[string]string{"d": writeDataset(f, d)})
	f.Fuzz(func(t *testing.T, body []byte) {
		s1, b1 := serveWithin(srv, body, 200*time.Millisecond)
		s2, b2 := serveWithin(srv, body, 200*time.Millisecond)
		if tripped(s1, b1) || tripped(s2, b2) {
			return
		}
		if s1 != s2 || !bytes.Equal(b1, b2) {
			t.Fatalf("two sends of %q diverged:\n%d %s\n%d %s", body, s1, b1, s2, b2)
		}
	})
}

// serveWithin sends body to srv's POST /v1/query in-process under a request
// deadline of d.
func serveWithin(srv *server.Server, body []byte, d time.Duration) (int, []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// tripped reports a response whose bytes may differ between two sends of
// one request: a deadline or tuple-budget trip, a truncated answer set, or
// a fallback degrade — each depends on timing or on worker scheduling.
func tripped(status int, body []byte) bool {
	switch status {
	case http.StatusGatewayTimeout, http.StatusRequestEntityTooLarge, http.StatusPartialContent:
		return true
	}
	return bytes.Contains(body, []byte(`"degraded": true`))
}
