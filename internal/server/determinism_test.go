package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wdpt/internal/core"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/server"
	"wdpt/internal/sparql"
)

// The result cache is keyed on the query text as sent and consulted before
// the parse. These tests pin what that must not change: every rejection is
// deterministic and never cached, a hit serves exactly the bytes of a miss
// and of direct Solve, and a textual variant is a miss with the same bytes.

// serve sends body to srv's POST /v1/query in-process and returns the status
// and the response body. The handler, including its query-log line, has
// finished when serve returns.
func serve(srv *server.Server, body string) (int, []byte) {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// encodeRequest renders req as a /v1/query body.
func encodeRequest(t *testing.T, req server.Request) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cacheEntries reads the result-cache occupancy gauge from srv's /metrics.
func cacheEntries(t *testing.T, srv *server.Server) int64 {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := obs.ParsePromText(w.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	f := fams[obs.GaugeCacheEntries.String()]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("/metrics has no %s gauge", obs.GaugeCacheEntries)
	}
	return int64(f.Samples[0].Value)
}

// pathD5 is a depth-5 path CQ.
const pathD5 = "SELECT ?y0 WHERE (E(?y0, ?y1) AND E(?y1, ?y2) AND E(?y2, ?y3) AND E(?y3, ?y4) AND E(?y4, ?y5))"

// TestRejectionsAreDeterministicAndUncached sends every rejection twice:
// both bodies are byte-identical, no send is a cache hit, and the cache
// holds exactly what it held before.
func TestRejectionsAreDeterministicAndUncached(t *testing.T) {
	specs := map[string]string{"d": writeDataset(t, gen.ChainDatabase(4))}
	plain := newTestServer(t, server.Config{MaxInFlight: 4, CacheSize: 16}, specs)
	bounded := newTestServer(t, server.Config{MaxInFlight: 4, CacheSize: 16, WidthBound: 1}, specs)
	const ok = `{"dataset":"d","query":"SELECT ?x WHERE E(?x, ?y)"}`
	const triangle = "SELECT ?x WHERE (E(?x, ?y) AND E(?y, ?z) AND E(?z, ?x))"
	for _, srv := range []*server.Server{plain, bounded} {
		if status, body := serve(srv, ok); status != http.StatusOK {
			t.Fatalf("warm-up: status %d body %s", status, body)
		}
	}

	cases := []struct {
		name   string
		srv    *server.Server
		body   string
		status int
		code   string
	}{
		{"malformed JSON", plain, `{"dataset":`, http.StatusBadRequest, "bad_request"},
		{"unknown field", plain, `{"dataset":"d","bogus":1}`, http.StatusBadRequest, "bad_request"},
		{"trailing data", plain, ok + " trailing garbage", http.StatusBadRequest, "bad_request"},
		{"second document", plain, ok + ok, http.StatusBadRequest, "bad_request"},
		{"twice-named variable", plain, encodeRequest(t, server.Request{Dataset: "d", Query: triangle, Mode: "partial",
			Mapping: map[string]string{"?x": "0", "x": "1"}}), http.StatusBadRequest, "bad_request"},
		{"unknown dataset", plain, encodeRequest(t, server.Request{Dataset: "nope", Query: triangle}), http.StatusNotFound, "unknown_dataset"},
		{"bad mode", plain, encodeRequest(t, server.Request{Dataset: "d", Query: triangle, Mode: "best"}), http.StatusBadRequest, "bad_mode"},
		{"bad engine", plain, encodeRequest(t, server.Request{Dataset: "d", Query: triangle, Engine: "quantum"}), http.StatusBadRequest, "bad_engine"},
		{"bad budget", plain, encodeRequest(t, server.Request{Dataset: "d", Query: triangle,
			Budget: &server.BudgetSpec{MaxAnswers: -1}}), http.StatusBadRequest, "bad_budget"},
		{"bad query", plain, encodeRequest(t, server.Request{Dataset: "d", Query: "SELECT WHERE ("}), http.StatusBadRequest, "bad_query"},
		{"empty query", plain, encodeRequest(t, server.Request{Dataset: "d", Query: " "}), http.StatusBadRequest, "bad_query"},
		{"width bound", bounded, encodeRequest(t, server.Request{Dataset: "d", Query: triangle}), http.StatusUnprocessableEntity, "width_bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			entries := cacheEntries(t, tc.srv)
			hits := tc.srv.Stats().Get(obs.CtrServerCacheHits)
			s1, b1 := serve(tc.srv, tc.body)
			s2, b2 := serve(tc.srv, tc.body)
			if s1 != tc.status || !bytes.Contains(b1, []byte(`"code": "`+tc.code+`"`)) {
				t.Fatalf("status %d body %s, want %d %s", s1, b1, tc.status, tc.code)
			}
			if s2 != s1 || !bytes.Equal(b2, b1) {
				t.Fatalf("second send diverged: status %d body %s, first %d %s", s2, b2, s1, b1)
			}
			if got := tc.srv.Stats().Get(obs.CtrServerCacheHits); got != hits {
				t.Errorf("cache hits went from %d to %d", hits, got)
			}
			if got := cacheEntries(t, tc.srv); got != entries {
				t.Errorf("cache entries went from %d to %d", entries, got)
			}
		})
	}
}

// TestCacheHitMatchesMissAndDirectSolve pins that for every request shape
// the miss body, the hit body and direct Solve through the shared encoder
// are byte-identical, and that a whitespace-only variant of a cached text
// is a miss that serves the same bytes.
func TestCacheHitMatchesMissAndDirectSolve(t *testing.T) {
	chain := gen.ChainDatabase(8)
	music := gen.MusicDatabaseLarge(40, 4, 1)
	srv := newTestServer(t, server.Config{MaxInFlight: 8, CacheSize: 64}, map[string]string{
		"chain": writeDataset(t, chain), "music": writeDataset(t, music),
	})

	band := "SELECT ?x ?z ?zp WHERE (recorded_by(?x, band3) OPT (published(?x, after_2010) AND rating(?x, ?z))) OPT formed_in(band3, ?zp)"
	all, err := gen.MusicWDPT("x", "y", "z", "zp").Solve(context.Background(), music, core.SolveOptions{Mode: core.ModeEnumerate})
	if err != nil || len(all.Answers) == 0 {
		t.Fatalf("enumerating the fixture: %v", err)
	}
	h := all.Answers[0]
	xy := map[string]string{"x": h["x"], "y": h["y"]}

	requests := []server.Request{
		{Dataset: "chain", Query: pathD5},
		{Dataset: "music", Query: figure1Query},
		{Dataset: "music", Query: band},
		{Dataset: "music", Query: band, Mode: "maximal"},
		{Dataset: "music", Query: figure1Query, Mode: "exact", Mapping: h},
		{Dataset: "music", Query: figure1Query, Mode: "exact", Mapping: xy},
		{Dataset: "music", Query: figure1Query, Mode: "partial", Mapping: xy},
		{Dataset: "music", Query: figure1Query, Mode: "max", Mapping: h},
	}
	dbs := map[string]*db.Database{"chain": chain, "music": music}
	for _, par := range []int{1, 8} {
		for _, req := range requests {
			req.Parallelism = par
			name := req.Dataset + "/" + orDefault(req.Mode, "enumerate")
			t.Run(name, func(t *testing.T) {
				u, err := sparql.ParseUnionQuery(req.Query)
				if err != nil {
					t.Fatal(err)
				}
				want, wantStatus := directBody(t, u.Trees()[0], dbs[req.Dataset], req, srv.EffectiveParallelism(par))
				if wantStatus != http.StatusOK {
					t.Fatalf("direct status %d", wantStatus)
				}
				hits, misses := srv.Stats().Get(obs.CtrServerCacheHits), srv.Stats().Get(obs.CtrServerCacheMisses)
				body := encodeRequest(t, req)
				missStatus, miss := serve(srv, body)
				hitStatus, hit := serve(srv, body)
				if missStatus != http.StatusOK || hitStatus != http.StatusOK {
					t.Fatalf("statuses %d then %d, want 200 twice", missStatus, hitStatus)
				}
				if !bytes.Equal(miss, want) || !bytes.Equal(hit, want) {
					t.Fatalf("bodies diverge:\nmiss:   %s\nhit:    %s\ndirect: %s", miss, hit, want)
				}
				if dh, dm := srv.Stats().Get(obs.CtrServerCacheHits)-hits, srv.Stats().Get(obs.CtrServerCacheMisses)-misses; dh != 1 || dm != 1 {
					t.Fatalf("hits +%d misses +%d, want one of each", dh, dm)
				}

				// A whitespace-only variant of the cached text is its own
				// entry: a miss, with the same bytes.
				variant := req
				variant.Query = "  " + strings.ReplaceAll(req.Query, " WHERE ", "\n  WHERE ") + "\n"
				misses = srv.Stats().Get(obs.CtrServerCacheMisses)
				status, got := serve(srv, encodeRequest(t, variant))
				if status != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("variant: status %d body %s, want 200 %s", status, got, want)
				}
				if dm := srv.Stats().Get(obs.CtrServerCacheMisses) - misses; dm != 1 {
					t.Fatalf("variant was not a cache miss (misses +%d)", dm)
				}
			})
		}
	}
}

// TestCacheHitSkipsParse pins the hit path's span tree: a slow-query log
// line for a hit holds cache_lookup and no parse, and the miss before it
// looks up the cache before it parses.
func TestCacheHitSkipsParse(t *testing.T) {
	buf := &syncBuffer{}
	srv := newTestServer(t, server.Config{
		MaxInFlight:        4,
		CacheSize:          16,
		QueryLog:           slog.New(slog.NewJSONHandler(buf, nil)),
		SlowQueryThreshold: time.Nanosecond,
	}, map[string]string{"chain": writeDataset(t, gen.ChainDatabase(4))})
	body := encodeRequest(t, server.Request{Dataset: "chain", Query: pathD5, Parallelism: 1})

	traceOf := func() string {
		t.Helper()
		line := lastLogLine(t, buf)
		tr, ok := line["trace"].(string)
		if !ok || line["level"] != "WARN" {
			t.Fatalf("no slow-query trace on the log line: %v", line)
		}
		return tr
	}
	if status, b := serve(srv, body); status != http.StatusOK {
		t.Fatalf("miss: status %d body %s", status, b)
	}
	miss := traceOf()
	lookup, parse := strings.Index(miss, "  cache_lookup "), strings.Index(miss, "  parse ")
	if lookup < 0 || parse < 0 || lookup > parse {
		t.Fatalf("miss trace does not look up the cache before it parses:\n%s", miss)
	}
	if status, b := serve(srv, body); status != http.StatusOK {
		t.Fatalf("hit: status %d body %s", status, b)
	}
	if srv.Stats().Get(obs.CtrServerCacheHits) != 1 {
		t.Fatal("the second send was not a cache hit")
	}
	hit := traceOf()
	if !strings.Contains(hit, "  cache_lookup ") || strings.Contains(hit, "parse") {
		t.Fatalf("hit trace must hold cache_lookup and no parse:\n%s", hit)
	}
}
