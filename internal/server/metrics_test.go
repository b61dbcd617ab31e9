// Observability tests for wdptd: the Prometheus exposition at /metrics,
// per-request tracing via ?trace=1, and the structured query log with
// slow-query promotion.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/server"
)

// syncBuffer serializes writes so the slog handler can be shared with the
// server goroutines httptest spawns.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// lastLogLine decodes the final JSON line written to the query log.
func lastLogLine(t *testing.T, buf *syncBuffer) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("query log is empty")
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("query log line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	return m
}

// TestMetricsExposition pins the /metrics contract: the body parses as
// Prometheus text exposition 0.0.4, histogram buckets are cumulative and
// monotone, and the per-request histogram carries dataset/mode/outcome
// labels for the traffic the test just sent.
func TestMetricsExposition(t *testing.T) {
	_, d, queryText, _ := musicFixture(t)
	_, cl, hs := startServer(t, server.Config{MaxInFlight: 8, CacheSize: 8},
		map[string]string{"music": writeDataset(t, d)})

	for i := 0; i < 3; i++ {
		if _, err := cl.Query(context.Background(), server.Request{Dataset: "music", Query: queryText}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Query(context.Background(), server.Request{Dataset: "music", Query: queryText, Mode: "maximal"}); err != nil {
		t.Fatal(err)
	}

	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePromText(string(raw))
	if err != nil {
		t.Fatalf("/metrics does not parse as exposition format: %v", err)
	}
	if err := obs.CheckHistograms(fams); err != nil {
		t.Fatalf("/metrics histograms are inconsistent: %v", err)
	}

	qd := fams["wdptd_query_duration_seconds"]
	if qd == nil || qd.Type != "histogram" {
		t.Fatalf("wdptd_query_duration_seconds family missing or mistyped: %+v", qd)
	}
	var sawEnumerate, sawMaximal bool
	for _, s := range qd.Samples {
		if s.Name != "wdptd_query_duration_seconds_count" {
			continue
		}
		if s.Labels["dataset"] != "music" || s.Labels["outcome"] != "ok" {
			t.Fatalf("unexpected series labels %v", s.Labels)
		}
		switch s.Labels["mode"] {
		case "enumerate":
			sawEnumerate = true
			if s.Value != 3 {
				t.Fatalf("enumerate count = %v, want 3 (cache hits observed too)", s.Value)
			}
		case "maximal":
			sawMaximal = true
		}
	}
	if !sawEnumerate || !sawMaximal {
		t.Fatalf("missing per-mode series (enumerate=%v maximal=%v)", sawEnumerate, sawMaximal)
	}
	for _, name := range []string{"wdptd_admission_wait_seconds", "wdptd_cache_lookup_seconds"} {
		if f := fams[name]; f == nil || f.Type != "histogram" {
			t.Fatalf("%s family missing", name)
		}
	}
	for _, name := range []string{"wdptd_inflight_queries", "wdptd_admission_queue_depth", "wdptd_result_cache_entries"} {
		if f := fams[name]; f == nil || f.Type != "gauge" {
			t.Fatalf("%s gauge missing", name)
		}
	}
	for _, name := range obs.RuntimeMetricNames() {
		if fams[name] == nil {
			t.Fatalf("runtime metric %s missing", name)
		}
	}
	if f := fams["wdpt_server_requests_total"]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value < 4 {
		t.Fatalf("wdpt_server_requests_total = %+v", f)
	}
}

// TestMetricsJSONGone pins that /metrics is the one scrape path: GET
// /metrics.json is 404, and every storage fact it used to carry
// (dictionary size, load timing, per-relation tuples, per-column distinct
// counts) is served by /v1/datasets.
func TestMetricsJSONGone(t *testing.T) {
	_, d, _, _ := musicFixture(t)
	_, cl, hs := startServer(t, server.Config{MaxInFlight: 4},
		map[string]string{"music": writeDataset(t, d)})
	resp, err := hs.Client().Get(hs.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics.json = %d, want 404", resp.StatusCode)
	}

	list, err := cl.Datasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "music" {
		t.Fatalf("/v1/datasets = %+v, want the music dataset", list.Datasets)
	}
	ds := list.Datasets[0]
	if ds.DictTerms <= 0 || ds.LoadNS <= 0 || len(ds.Relations) == 0 {
		t.Fatalf("/v1/datasets lacks dict_terms/load_ns/relations: %+v", ds)
	}
	for _, rel := range ds.Relations {
		if rel.Tuples <= 0 || rel.Tuples != d.Relation(rel.Name).Len() {
			t.Fatalf("relation %s: tuples = %d, want %d", rel.Name, rel.Tuples, d.Relation(rel.Name).Len())
		}
		if len(rel.Columns) != rel.Arity {
			t.Fatalf("relation %s: %d column summaries, want %d", rel.Name, len(rel.Columns), rel.Arity)
		}
		for _, col := range rel.Columns {
			if col.Distinct <= 0 {
				t.Fatalf("relation %s column %d: distinct = %d, want > 0", rel.Name, col.Pos, col.Distinct)
			}
		}
	}
}

// TestQueryTraceMatchesLog is the tracing acceptance pin: ?trace=1 returns
// a span tree whose root is the request's "query" span, and the root's
// duration is exactly the wall time the query log records. The request ID
// from X-Request-Id is echoed on the response and stamped on the log line.
func TestQueryTraceMatchesLog(t *testing.T) {
	_, d, queryText, _ := musicFixture(t)
	buf := &syncBuffer{}
	_, _, hs := startServer(t, server.Config{
		MaxInFlight: 4,
		QueryLog:    slog.New(slog.NewJSONHandler(buf, nil)),
	}, map[string]string{"music": writeDataset(t, d)})

	payload, err := json.Marshal(server.Request{Dataset: "music", Query: queryText})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/query?trace=1", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Request-Id", "test-trace-42")
	resp, err := hs.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if got := resp.Header.Get("X-Request-Id"); got != "test-trace-42" {
		t.Fatalf("X-Request-Id echo = %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decoding traced report: %v", err)
	}
	if len(rep.Trace) != 1 || rep.Trace[0].Name != "query" {
		t.Fatalf("trace roots = %+v", rep.Trace)
	}
	names := map[string]bool{}
	for _, c := range rep.Trace[0].Children {
		names[c.Name] = true
	}
	for _, want := range []string{"parse", "admission_wait", "solve"} {
		if !names[want] {
			t.Fatalf("trace missing %q child: %+v", want, rep.Trace[0].Children)
		}
	}

	line := lastLogLine(t, buf)
	if line["request_id"] != "test-trace-42" || line["dataset"] != "music" || line["outcome"] != "ok" {
		t.Fatalf("query log line = %v", line)
	}
	wallNS, ok := line["wall_ns"].(float64)
	if !ok {
		t.Fatalf("wall_ns missing: %v", line)
	}
	if int64(wallNS) != rep.Trace[0].DurationNS {
		t.Fatalf("logged wall %dns != trace root %dns", int64(wallNS), rep.Trace[0].DurationNS)
	}
	if ver, ok := line["dataset_version"].(float64); !ok || ver < 1 {
		t.Fatalf("dataset_version = %v", line["dataset_version"])
	}
}

// TestSlowQueryWarn pins the slow-query promotion: with a 1ns threshold,
// every query logs at WARN with its span tree inline — without ?trace=1
// and without the trace leaking into the response body.
func TestSlowQueryWarn(t *testing.T) {
	_, d, queryText, _ := musicFixture(t)
	buf := &syncBuffer{}
	_, cl, _ := startServer(t, server.Config{
		MaxInFlight:        4,
		QueryLog:           slog.New(slog.NewJSONHandler(buf, nil)),
		SlowQueryThreshold: time.Nanosecond,
	}, map[string]string{"music": writeDataset(t, d)})

	res, err := cl.Query(context.Background(), server.Request{Dataset: "music", Query: queryText})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || len(res.Report.Trace) != 0 {
		t.Fatalf("trace must not leak into untraced responses: %+v", res.Report)
	}
	line := lastLogLine(t, buf)
	if line["level"] != "WARN" || line["msg"] != "slow query" {
		t.Fatalf("slow query not promoted: %v", line)
	}
	tr, ok := line["trace"].(string)
	if !ok || !strings.Contains(tr, "query ") || !strings.Contains(tr, "  solve ") {
		t.Fatalf("inline span tree missing: %v", line["trace"])
	}
}
