// Integration tests for wdptd: every assertion goes through the real HTTP
// stack (httptest + the typed client) against a real dataset file, and the
// load-bearing ones compare raw response bodies byte-for-byte against what
// direct Solve + the shared report encoder produce — the wdpteval -json
// parity contract.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/server"
	"wdpt/internal/server/client"
	"wdpt/internal/sparql"
)

// qsolver is the Solve shape shared by *core.PatternTree and *uwdpt.Union.
type qsolver interface {
	Solve(ctx context.Context, d *db.Database, opts core.SolveOptions) (core.Result, error)
}

// writeDataset renders d into a file under a fresh temp dir.
func writeDataset(t testing.TB, d *db.Database) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := os.WriteFile(path, []byte(sparql.FormatDatabase(d)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestServer builds a server over specs without a listener.
func newTestServer(t testing.TB, cfg server.Config, specs map[string]string) *server.Server {
	t.Helper()
	reg, err := server.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	srv, err := server.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// startServer builds a Server from cfg (filling in the registry from specs)
// and serves it over httptest.
func startServer(t *testing.T, cfg server.Config, specs map[string]string) (*server.Server, *client.Client, *httptest.Server) {
	t.Helper()
	srv := newTestServer(t, cfg, specs)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, client.New(hs.URL, hs.Client()), hs
}

// directBody mirrors the server's (and wdpteval -json's) report building for
// one request evaluated directly through Solve, returning the exact expected
// body bytes and HTTP status. Budget-tripped enumerations are tolerated
// (they serve 206 with the truncated set); any other error fails the test.
func directBody(t *testing.T, q qsolver, d *db.Database, req server.Request, par int) ([]byte, int) {
	t.Helper()
	modeName, engName := req.Mode, req.Engine
	if modeName == "" {
		modeName = "enumerate"
	}
	if engName == "" {
		engName = "auto"
	}
	mode := map[string]core.Mode{
		"enumerate": core.ModeEnumerate, "maximal": core.ModeMaximal,
		"exact": core.ModeExact, "exact-naive": core.ModeExactNaive,
		"partial": core.ModePartial, "max": core.ModeMax,
	}[modeName]
	engines := map[string]func() cqeval.Engine{
		"auto": cqeval.Auto, "naive": cqeval.Naive, "yannakakis": cqeval.Yannakakis,
		"decomposition": cqeval.Decomposition,
	}
	var budget guard.Budget
	if req.Budget != nil {
		budget = guard.Budget{
			Wall:       time.Duration(req.Budget.WallMS) * time.Millisecond,
			MaxTuples:  req.Budget.MaxTuples,
			MaxAnswers: req.Budget.MaxAnswers,
		}
	}
	h := cq.Mapping{}
	for k, v := range req.Mapping {
		h[strings.TrimPrefix(k, "?")] = v
	}
	opts := core.SolveOptions{
		Mode: mode, Mapping: h, Engine: engines[engName](),
		Parallelism: par, Budget: budget, Fallback: req.Fallback,
	}
	rep := report.Report{Mode: modeName, Engine: engName, Parallelism: par}
	res, err := q.Solve(context.Background(), d, opts)
	var evalErr error
	switch mode {
	case core.ModeEnumerate, core.ModeMaximal:
		if err != nil && !errors.Is(err, guard.ErrAnswerLimit) {
			t.Fatalf("direct solve (%s): %v", modeName, err)
		}
		evalErr = err
		rep.NoteDegraded(res)
		rep.SetAnswers(res.Answers)
	default:
		if err != nil {
			t.Fatalf("direct solve (%s): %v", modeName, err)
		}
		rep.NoteDegraded(res)
		rep.SetResult(res.Holds)
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), report.HTTPStatus(evalErr)
}

// scrape fetches GET /metrics, parses it with obs.ParsePromText and returns
// every unlabelled sample keyed by its exposition name (the counter
// server.cache_hits is "wdpt_server_cache_hits_total").
func scrape(t *testing.T, cl *client.Client) map[string]int64 {
	t.Helper()
	text, err := cl.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePromText(text)
	if err != nil {
		t.Fatalf("/metrics does not parse as exposition format: %v", err)
	}
	out := make(map[string]int64)
	for _, f := range fams {
		for _, s := range f.Samples {
			if len(s.Labels) == 0 {
				out[s.Name] = int64(s.Value)
			}
		}
	}
	return out
}

// musicFixture returns the Figure 1 tree, its database, the parseable query
// text, and a full candidate mapping (an actual answer).
func musicFixture(t *testing.T) (*core.PatternTree, *db.Database, string, map[string]string) {
	t.Helper()
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	full, err := p.Solve(context.Background(), d, core.SolveOptions{Mode: core.ModeEnumerate})
	if err != nil || len(full.Answers) == 0 {
		t.Fatalf("enumerating the fixture: %v (%d answers)", err, len(full.Answers))
	}
	return p, d, sparql.Format(p), full.Answers[0]
}

// TestServerParityWithDirectSolve is the core acceptance pin: for every mode
// and P ∈ {1, 8}, the body served over HTTP is byte-identical to direct
// Solve output through the shared encoder.
func TestServerParityWithDirectSolve(t *testing.T) {
	p, d, queryText, h := musicFixture(t)
	_, cl, _ := startServer(t, server.Config{MaxInFlight: 64, MaxQueue: 64, CacheSize: 16},
		map[string]string{"music": writeDataset(t, d)})

	requests := []server.Request{
		{Dataset: "music", Query: queryText},
		{Dataset: "music", Query: queryText, Mode: "maximal"},
		{Dataset: "music", Query: queryText, Mode: "exact", Mapping: h},
		{Dataset: "music", Query: queryText, Mode: "exact-naive", Mapping: h},
		{Dataset: "music", Query: queryText, Mode: "partial", Mapping: map[string]string{"y": h["y"]}},
		{Dataset: "music", Query: queryText, Mode: "max", Mapping: h},
		{Dataset: "music", Query: queryText, Engine: "naive"},
		{Dataset: "music", Query: queryText, Engine: "yannakakis"},
	}
	for _, par := range []int{1, 8} {
		for _, req := range requests {
			req.Parallelism = par
			name := fmt.Sprintf("%s/%s/p%d", orDefault(req.Mode, "enumerate"), orDefault(req.Engine, "auto"), par)
			t.Run(name, func(t *testing.T) {
				want, wantStatus := directBody(t, p, d, req, par)
				res, err := cl.Query(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != wantStatus {
					t.Fatalf("status %d, want %d (body %s)", res.Status, wantStatus, res.Body)
				}
				if !bytes.Equal(res.Body, want) {
					t.Fatalf("body diverges from direct Solve:\nserver: %s\ndirect: %s", res.Body, want)
				}
			})
		}
	}

	// Variable names in mappings may carry the ?-prefix; the body must not
	// change.
	plain, err := cl.Query(context.Background(), server.Request{
		Dataset: "music", Query: queryText, Mode: "partial", Mapping: map[string]string{"y": h["y"]}, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	prefixed, err := cl.Query(context.Background(), server.Request{
		Dataset: "music", Query: queryText, Mode: "partial", Mapping: map[string]string{"?y": h["y"]}, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Body, prefixed.Body) {
		t.Errorf("?-prefixed mapping changed the body:\n%s\nvs\n%s", prefixed.Body, plain.Body)
	}
}

// orDefault returns s, or def when s is empty.
func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// TestServerMaximalRunsRequestEngine pins that a maximal request runs on
// the engine it names: on yannakakis its counters show the join trees the
// engine built, and its answers are those of the same request on naive.
func TestServerMaximalRunsRequestEngine(t *testing.T) {
	_, d, queryText, _ := musicFixture(t)
	_, cl, _ := startServer(t, server.Config{MaxInFlight: 4}, map[string]string{"music": writeDataset(t, d)})
	maximal := func(engine string) *report.Report {
		res, err := cl.Query(context.Background(), server.Request{
			Dataset: "music", Query: queryText, Mode: "maximal", Engine: engine, Stats: true, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != http.StatusOK {
			t.Fatalf("%s: status %d (body %s)", engine, res.Status, res.Body)
		}
		return res.Report
	}
	yannakakis, naive := maximal("yannakakis"), maximal("naive")
	if got := yannakakis.Counters["cqeval.join_trees_built"]; got == 0 {
		t.Errorf("maximal on yannakakis built no join tree; counters %v", yannakakis.Counters)
	}
	if len(naive.Answers) == 0 || fmt.Sprint(yannakakis.Answers) != fmt.Sprint(naive.Answers) {
		t.Errorf("maximal answers differ by engine:\nyannakakis %v\nnaive      %v", yannakakis.Answers, naive.Answers)
	}
}

// TestServerUnionParity pins that top-level UNION queries route through
// Union.Solve with the same byte-identical contract.
func TestServerUnionParity(t *testing.T) {
	d := gen.ChainDatabase(4)
	text := "SELECT ?y0 WHERE E(?y0, ?y1) UNION SELECT ?y1 WHERE E(?y0, ?y1)"
	u, err := sparql.ParseUnionQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	_, cl, _ := startServer(t, server.Config{MaxInFlight: 16}, map[string]string{"chain": writeDataset(t, d)})
	for _, par := range []int{1, 8} {
		req := server.Request{Dataset: "chain", Query: text, Parallelism: par}
		want, wantStatus := directBody(t, u, d, req, par)
		res, err := cl.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != wantStatus || !bytes.Equal(res.Body, want) {
			t.Fatalf("p%d: status %d body %s\nwant %d %s", par, res.Status, res.Body, wantStatus, want)
		}
		if got := *res.Report.AnswerCount; got == 0 {
			t.Fatalf("union enumeration returned no answers")
		}
	}
}

// TestServerErrorTaxonomy pins the typed-error contract: each failure class
// maps to its documented status and stable code, and budget trips carry the
// meter's progress readings.
func TestServerErrorTaxonomy(t *testing.T) {
	_, d, queryText, _ := musicFixture(t)
	heavy := gen.LayeredDatabase(7, 40, 6, 1)
	_, cl, hs := startServer(t, server.Config{MaxInFlight: 16, CacheSize: 16}, map[string]string{
		"music": writeDataset(t, d),
		"heavy": writeDataset(t, heavy),
	})
	ctx := context.Background()

	cases := []struct {
		name       string
		req        server.Request
		wantStatus int
		wantCode   string
	}{
		{"unknown dataset", server.Request{Dataset: "nope", Query: queryText}, http.StatusNotFound, "unknown_dataset"},
		{"bad query", server.Request{Dataset: "music", Query: "SELECT WHERE ("}, http.StatusBadRequest, "bad_query"},
		{"empty query", server.Request{Dataset: "music", Query: "  "}, http.StatusBadRequest, "bad_query"},
		{"bad mode", server.Request{Dataset: "music", Query: queryText, Mode: "best"}, http.StatusBadRequest, "bad_mode"},
		{"bad engine", server.Request{Dataset: "music", Query: queryText, Engine: "quantum"}, http.StatusBadRequest, "bad_engine"},
		{"bad budget", server.Request{Dataset: "music", Query: queryText, Budget: &server.BudgetSpec{WallMS: -1}}, http.StatusBadRequest, "bad_budget"},
		{"tuple budget", server.Request{Dataset: "music", Query: queryText, Parallelism: 1,
			Budget: &server.BudgetSpec{MaxTuples: 1}}, http.StatusRequestEntityTooLarge, "tuple_budget"},
		{"deadline", server.Request{Dataset: "heavy", Query: heavyQueryText, Engine: "naive", Parallelism: 1,
			Budget: &server.BudgetSpec{WallMS: 1}}, http.StatusGatewayTimeout, "deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := cl.Query(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", res.Status, tc.wantStatus, res.Body)
			}
			if res.Err == nil || res.Err.Code != tc.wantCode {
				t.Fatalf("error payload %+v, want code %q", res.Err, tc.wantCode)
			}
			if want := `server: unknown engine "quantum"`; tc.wantCode == "bad_engine" && res.Err.Message != want {
				t.Errorf("bad engine message %q, want %q", res.Err.Message, want)
			}
			if tc.wantCode == "tuple_budget" && res.Err.Tuples < 2 {
				t.Errorf("tuple trip carries Tuples=%d, want >= 2", res.Err.Tuples)
			}
		})
	}

	t.Run("answer cap serves 206 with the partial set", func(t *testing.T) {
		req := server.Request{Dataset: "music", Query: queryText, Parallelism: 1,
			Budget: &server.BudgetSpec{MaxAnswers: 1}}
		res, err := cl.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != http.StatusPartialContent {
			t.Fatalf("status %d, want 206 (body %s)", res.Status, res.Body)
		}
		if res.Report == nil || res.Report.AnswerCount == nil || *res.Report.AnswerCount != 1 {
			t.Fatalf("206 body does not carry the truncated set: %s", res.Body)
		}
		if res.Report.Degraded == nil || !*res.Report.Degraded || res.Report.DegradedMode != "enumerate" {
			t.Fatalf("206 body not marked degraded: %s", res.Body)
		}
	})

	t.Run("answer cap with fallback serves 200 degraded", func(t *testing.T) {
		res, err := cl.Query(ctx, server.Request{Dataset: "music", Query: queryText, Parallelism: 1,
			Budget: &server.BudgetSpec{MaxAnswers: 1}, Fallback: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != http.StatusOK || res.Report.Degraded == nil || !*res.Report.Degraded {
			t.Fatalf("status %d body %s, want 200 degraded", res.Status, res.Body)
		}
	})

	t.Run("unknown field is rejected", func(t *testing.T) {
		resp, err := hs.Client().Post(hs.URL+"/v1/query", "application/json",
			strings.NewReader(`{"dataset":"music","bogus":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestServerRejectsTrailingData pins that a request document followed by
// anything but whitespace is a 400 bad_request, while a trailing newline
// (what most clients send) stays legal.
func TestServerRejectsTrailingData(t *testing.T) {
	srv := newTestServer(t, server.Config{MaxInFlight: 4, CacheSize: 16},
		map[string]string{"d": writeDataset(t, gen.ChainDatabase(3))})
	const doc = `{"dataset":"d","query":"SELECT ?x WHERE E(?x, ?y)"}`
	for _, tail := range []string{" trailing garbage", " {}", "}", "\n\n1", ` "x"`} {
		status, body := serve(srv, doc+tail)
		if status != http.StatusBadRequest || !bytes.Contains(body, []byte(`"bad_request"`)) ||
			!bytes.Contains(body, []byte("data after the JSON document")) {
			t.Errorf("tail %q: status %d body %s, want 400 bad_request", tail, status, body)
		}
	}
	for _, tail := range []string{"", "\n", " \r\n\t "} {
		if status, body := serve(srv, doc+tail); status != http.StatusOK {
			t.Errorf("tail %q: status %d body %s, want 200", tail, status, body)
		}
	}
}

// heavyQueryText is a depth-6 path CQ whose naive-engine evaluation fans out
// as outDeg^6 on the layered database — reliably long-running, and stoppable
// only through the guard meter's context checks.
const heavyQueryText = "SELECT ?y0 WHERE (E(?y0, ?y1) AND E(?y1, ?y2) AND E(?y2, ?y3) AND E(?y3, ?y4) AND E(?y4, ?y5) AND E(?y5, ?y6))"

// TestServerWidthBoundReject pins the admission fast path: a query outside
// TW(k) is rejected with 422 before any evaluation work, and counted.
func TestServerWidthBoundReject(t *testing.T) {
	d := gen.ChainDatabase(3)
	_, cl, _ := startServer(t, server.Config{MaxInFlight: 4, WidthBound: 1},
		map[string]string{"chain": writeDataset(t, d)})
	ctx := context.Background()

	// A triangle has treewidth 2.
	res, err := cl.Query(ctx, server.Request{Dataset: "chain",
		Query: "SELECT ?x WHERE (E(?x, ?y) AND E(?y, ?z) AND E(?z, ?x))"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusUnprocessableEntity || res.Err == nil || res.Err.Code != "width_bound" {
		t.Fatalf("triangle: status %d payload %+v, want 422 width_bound", res.Status, res.Err)
	}
	// An acyclic query passes the same bound.
	ok, err := cl.Query(ctx, server.Request{Dataset: "chain", Query: "SELECT ?y0 WHERE E(?y0, ?y1)"})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Status != http.StatusOK {
		t.Fatalf("path query: status %d (body %s), want 200", ok.Status, ok.Body)
	}
	m := scrape(t, cl)
	if m["wdpt_server_width_rejects_total"] != 1 {
		t.Errorf("server.width_rejects = %d, want 1", m["wdpt_server_width_rejects_total"])
	}
}

// TestServerCacheHitAndReloadMiss pins the caching contract: a repeated
// query is served from cache with an identical body, and a dataset
// hot-reload invalidates it through the version-stamped key.
func TestServerCacheHitAndReloadMiss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chain.txt")
	if err := os.WriteFile(path, []byte("E(0, 1).\nE(1, 2).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cl, _ := startServer(t, server.Config{MaxInFlight: 4, CacheSize: 8},
		map[string]string{"chain": path})
	ctx := context.Background()
	req := server.Request{Dataset: "chain", Query: "SELECT ?y0 WHERE E(?y0, ?y1)", Parallelism: 1}

	first, err := cl.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Body, second.Body) {
		t.Fatalf("cached body diverges:\n%s\nvs\n%s", second.Body, first.Body)
	}
	m := scrape(t, cl)
	if m["wdpt_server_cache_hits_total"] != 1 || m["wdpt_server_cache_misses_total"] != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", m["wdpt_server_cache_hits_total"], m["wdpt_server_cache_misses_total"])
	}

	// Hot-reload with more data: the version bump must invalidate the entry.
	if err := os.WriteFile(path, []byte("E(0, 1).\nE(1, 2).\nE(2, 3).\nE(3, 4).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	version, err := cl.Reload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("reload version = %d, want 2", version)
	}
	third, err := cl.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(third.Body, first.Body) {
		t.Fatalf("post-reload query served the stale body: %s", third.Body)
	}
	if *third.Report.AnswerCount <= *first.Report.AnswerCount {
		t.Fatalf("reloaded dataset did not grow the answer set: %d vs %d",
			*third.Report.AnswerCount, *first.Report.AnswerCount)
	}
	m = scrape(t, cl)
	if m["wdpt_server_cache_hits_total"] != 1 || m["wdpt_server_cache_misses_total"] != 2 || m["wdpt_server_reloads_total"] != 1 {
		t.Fatalf("after reload: hits=%d misses=%d reloads=%d, want 1/2/1",
			m["wdpt_server_cache_hits_total"], m["wdpt_server_cache_misses_total"], m["wdpt_server_reloads_total"])
	}

	// Stats-carrying responses bypass the cache entirely.
	statsReq := req
	statsReq.Stats = true
	res, err := cl.Query(ctx, statsReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Counters == nil {
		t.Fatalf("stats request carries no counters: %s", res.Body)
	}
	m2 := scrape(t, cl)
	if m2["wdpt_server_cache_hits_total"] != m["wdpt_server_cache_hits_total"] || m2["wdpt_server_cache_misses_total"] != m["wdpt_server_cache_misses_total"] {
		t.Errorf("stats request touched the cache: %v vs %v", m2, m)
	}
}

// TestServerFallbackDegradedBody is the acceptance pin for budget
// degradation over HTTP: with a tuple budget calibrated so exact and max
// trip but partial succeeds, a fallback request serves 200 with a degraded
// body equal to what the weaker mode's direct evaluation produces.
func TestServerFallbackDegradedBody(t *testing.T) {
	p := gen.MusicWDPT("y", "z")
	d := gen.MusicDatabaseLarge(4, 6, 1)
	full, err := p.Solve(context.Background(), d, core.SolveOptions{Mode: core.ModeEnumerate})
	if err != nil || len(full.Answers) == 0 {
		t.Fatalf("enumerating the fixture: %v", err)
	}
	h := full.Answers[0].Restrict([]string{"y"})

	charges := func(mode core.Mode) int64 {
		st := obs.NewStats()
		_, err := p.Solve(context.Background(), d, core.SolveOptions{
			Mode: mode, Mapping: h, Stats: st, Budget: guard.Budget{MaxTuples: 1 << 50},
		})
		if err != nil {
			t.Fatalf("calibration (%v): %v", mode, err)
		}
		return st.Snapshot()["guard.budget_charges"]
	}
	exact, max, partial := charges(core.ModeExact), charges(core.ModeMax), charges(core.ModePartial)
	if partial >= max || partial >= exact {
		t.Fatalf("calibration broke: partial=%d max=%d exact=%d", partial, max, exact)
	}

	_, cl, _ := startServer(t, server.Config{MaxInFlight: 4, CacheSize: 8},
		map[string]string{"music": writeDataset(t, d)})
	req := server.Request{
		Dataset: "music", Query: sparql.Format(p), Mode: "exact", Mapping: h, Parallelism: 1,
		Budget: &server.BudgetSpec{MaxTuples: partial}, Fallback: true,
	}
	res, err := cl.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK {
		t.Fatalf("status %d (body %s), want 200", res.Status, res.Body)
	}
	if res.Report.Degraded == nil || !*res.Report.Degraded || res.Report.DegradedMode != "partial" {
		t.Fatalf("body not degraded to partial: %s", res.Body)
	}
	// The degraded verdict equals the weaker mode's direct answer.
	direct, err := p.Solve(context.Background(), d, core.SolveOptions{
		Mode: core.ModePartial, Mapping: h, Engine: cqeval.Auto(), Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Result == nil || *res.Report.Result != direct.Holds {
		t.Fatalf("degraded verdict %v, want the direct partial answer %v", res.Report.Result, direct.Holds)
	}
	// Without fallback, the same budget is a hard 413.
	req.Fallback = false
	res, err = cl.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusRequestEntityTooLarge || res.Err == nil || res.Err.Code != "tuple_budget" {
		t.Fatalf("without fallback: status %d payload %+v, want 413 tuple_budget", res.Status, res.Err)
	}
}

// waitGoroutines fails the test if the goroutine count does not return to
// the baseline within the grace period.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerGracefulShutdownCancelsInFlight pins the drain contract: a
// long-running query is cancelled when the shutdown deadline passes, its
// request gets the shutting_down payload, later requests are rejected
// immediately, and no goroutines leak once the listener closes.
func TestServerGracefulShutdownCancelsInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	heavy := gen.LayeredDatabase(7, 40, 6, 1)
	reg, err := server.NewRegistry(map[string]string{"heavy": writeDataset(t, heavy)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewServer(server.Config{Registry: reg, MaxInFlight: 4, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	cl := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	resCh := make(chan *client.QueryResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := cl.Query(ctx, server.Request{
			Dataset: "heavy", Query: heavyQueryText, Engine: "naive", Parallelism: 1,
		})
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()
	// Wait until the query is actually evaluating.
	for deadline := time.Now().Add(5 * time.Second); ; {
		h, err := cl.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heavy query never became in-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(shCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded (forced drain)", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("forced drain took %s; cancellation did not stop the query", elapsed)
	}
	select {
	case res := <-resCh:
		if res.Status != http.StatusServiceUnavailable || res.Err == nil || res.Err.Code != "shutting_down" {
			t.Fatalf("in-flight query: status %d payload %+v, want 503 shutting_down", res.Status, res.Err)
		}
	case err := <-errCh:
		t.Fatalf("in-flight query transport error: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query never returned after forced drain")
	}
	// New queries are rejected outright while draining.
	res, err := cl.Query(ctx, server.Request{Dataset: "heavy", Query: "SELECT ?y0 WHERE E(?y0, ?y1)"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable || res.Err == nil || res.Err.Code != "shutting_down" {
		t.Fatalf("post-shutdown query: status %d payload %+v, want 503 shutting_down", res.Status, res.Err)
	}
	hs.Close()
	hs.Client().CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestServerAdmissionQueueOverflow pins the 429 path: with capacity 1, no
// queue, and a long query holding the slot, the next request is rejected
// immediately with Retry-After.
func TestServerAdmissionQueueOverflow(t *testing.T) {
	heavy := gen.LayeredDatabase(7, 40, 6, 1)
	_, cl, hs := startServer(t, server.Config{MaxInFlight: 1, MaxQueue: 0},
		map[string]string{"heavy": writeDataset(t, heavy)})
	ctx := context.Background()

	holdCtx, release := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The holder is cancelled at the end of the test; transport errors
		// and 5xx are both fine — it only exists to occupy the slot.
		_, _ = cl.Query(holdCtx, server.Request{
			Dataset: "heavy", Query: heavyQueryText, Engine: "naive", Parallelism: 1,
		})
	}()
	defer func() { release(); <-done; hs.Client().CloseIdleConnections() }()
	for deadline := time.Now().Add(5 * time.Second); ; {
		h, err := cl.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("holder query never became in-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	res, err := cl.Query(ctx, server.Request{Dataset: "heavy", Query: "SELECT ?y0 WHERE E(?y0, ?y1)"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusTooManyRequests || res.Err == nil || res.Err.Code != "queue_full" {
		t.Fatalf("status %d payload %+v, want 429 queue_full", res.Status, res.Err)
	}
	if res.RetryAfter == "" {
		t.Error("429 response carries no Retry-After header")
	}
	m := scrape(t, cl)
	if m["wdpt_server_admission_rejects_total"] != 1 {
		t.Errorf("server.admission_rejects = %d, want 1", m["wdpt_server_admission_rejects_total"])
	}
}

// TestServerLoadSmoke fires concurrent mixed-mode requests (run it with
// -race) and asserts every 200 body is byte-identical to direct Solve
// output — cached or not, sequential or parallel.
func TestServerLoadSmoke(t *testing.T) {
	p, d, queryText, h := musicFixture(t)
	_, cl, _ := startServer(t, server.Config{MaxInFlight: 8, MaxQueue: 64, CacheSize: 4},
		map[string]string{"music": writeDataset(t, d)})

	type shape struct {
		req        server.Request
		want       []byte
		wantStatus int
	}
	var shapes []shape
	for _, par := range []int{1, 8} {
		for _, req := range []server.Request{
			{Dataset: "music", Query: queryText},
			{Dataset: "music", Query: queryText, Mode: "maximal"},
			{Dataset: "music", Query: queryText, Mode: "exact", Mapping: h},
			{Dataset: "music", Query: queryText, Mode: "partial", Mapping: map[string]string{"y": h["y"]}},
			{Dataset: "music", Query: queryText, Mode: "max", Mapping: h},
		} {
			req.Parallelism = par
			want, wantStatus := directBody(t, p, d, req, par)
			shapes = append(shapes, shape{req, want, wantStatus})
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(shapes))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range shapes {
				// Stagger starting points so modes genuinely interleave.
				sh := shapes[(i+w)%len(shapes)]
				res, err := cl.Query(context.Background(), sh.req)
				if err != nil {
					errs <- fmt.Errorf("worker %d shape %d: %w", w, i, err)
					return
				}
				if res.Status != sh.wantStatus {
					errs <- fmt.Errorf("worker %d: status %d, want %d (%s)", w, res.Status, sh.wantStatus, res.Body)
					return
				}
				if !bytes.Equal(res.Body, sh.want) {
					errs <- fmt.Errorf("worker %d: body diverged under load:\n%s\nwant\n%s", w, res.Body, sh.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := scrape(t, cl)
	if m["wdpt_server_requests_total"] < int64(workers*len(shapes)) {
		t.Errorf("server.requests = %d, want >= %d", m["wdpt_server_requests_total"], workers*len(shapes))
	}
	if m["wdpt_server_cache_evictions_total"] == 0 {
		t.Errorf("cache (size 4) under %d shapes recorded no evictions", len(shapes))
	}
}
