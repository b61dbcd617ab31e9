// Package server implements wdptd, the concurrent WDPT query service: a
// dataset registry of named databases with atomic hot reload, an HTTP/JSON
// query endpoint mapped onto the consolidated Solve API, weighted admission
// control over the server's total in-flight parallelism, and a bounded LRU
// cache of response bodies.
//
// The response body of POST /v1/query is the internal/report document —
// byte-identical to what wdpteval -json prints for the same query, database,
// mode, and options — and evaluation errors map onto the same guard
// taxonomy the CLI exposes as exit codes: 504 deadline, 413 tuple budget,
// 206 answer limit (the body carries the truncated partial answer set).
// See docs/SERVER.md for the API reference.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"time"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/sparql"
)

// maxRequestBytes bounds the size of a /v1/query request document.
const maxRequestBytes = 1 << 20

// errTrailingData rejects a /v1/query body that carries anything but
// whitespace after its JSON document.
var errTrailingData = errors.New("request body has data after the JSON document")

// DecodeRequest decodes one /v1/query document from r into req. Unknown
// fields are an error, and so is anything but whitespace after the
// document. The cluster coordinator decodes with it too, so both nodes
// agree on which bodies are malformed.
func DecodeRequest(r io.Reader, req *Request) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// Config configures a Server. Registry is required; every other field has a
// usable zero value.
type Config struct {
	// Registry is the dataset registry queries address by name. Required.
	Registry *Registry
	// MaxInFlight bounds the total parallelism of concurrently evaluating
	// queries (each request holds a weight equal to its effective
	// parallelism). Values < 1 default to runtime.NumCPU().
	MaxInFlight int
	// MaxQueue bounds the admission wait queue; a request arriving when the
	// semaphore is exhausted and the queue is full is rejected with 429.
	// 0 disables queueing (immediate 429 under saturation).
	MaxQueue int
	// WidthBound, when > 0, fast-rejects (422) queries that are not globally
	// in TW(WidthBound) — an analysis-only check that runs before any
	// evaluation work is admitted.
	WidthBound int
	// CacheSize bounds the result cache (entries); values < 1 disable it.
	CacheSize int
	// Stats receives the server.* counters and the engine counters of
	// stats-carrying requests. nil allocates a private Stats.
	Stats *obs.Stats
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// QueryLog, when non-nil, receives one structured line per /v1/query
	// request: request ID, dataset and its registry version, mode, budgets,
	// degradation tier, counters, outcome, and wall time. wdptd wires a
	// JSON slog handler here, producing a JSON-lines query log.
	QueryLog *slog.Logger
	// SlowQueryThreshold, when > 0, promotes query-log lines at or above
	// this wall time to WARN and inlines the request's span tree.
	SlowQueryThreshold time.Duration
	// BaseContext, when non-nil, parents every request's evaluation
	// context in addition to Shutdown: cancelling it (the process's
	// signal context in wdptd) drains the server exactly like Shutdown
	// does. nil defaults to Background.
	BaseContext context.Context
}

// Server is the wdptd HTTP handler: it serves /v1/query, /healthz,
// /v1/datasets, /metrics, /admin/reload, /admin/snapshot, and (optionally)
// /debug/pprof/.
// Create one with NewServer and shut it down with Shutdown, which drains
// in-flight queries and cancels their contexts past the deadline.
type Server struct {
	cfg   Config
	reg   *Registry
	adm   *admission
	cache *resultCache
	st    *obs.Stats
	mux   *http.ServeMux

	// qdur is the per-request latency histogram family, labeled
	// dataset × mode × outcome; admWait and cacheLookup time the admission
	// queue and the result-cache lookup. All three are scraped by
	// GET /metrics.
	qdur        *obs.HistVec
	admWait     *obs.Histogram
	cacheLookup *obs.Histogram
	queryLog    *slog.Logger

	// metricsExtra, when set (SetMetricsExtra), appends additional families
	// to the /metrics exposition between the server's own families and the
	// runtime block.
	metricsExtra func(e *obs.Exposition)

	// baseCtx parents every request's evaluation context; Shutdown cancels
	// it to stop in-flight work past the drain deadline.
	baseCtx context.Context
	cancel  context.CancelFunc

	// shutMu orders the closed flag against inflight.Add so Shutdown's Wait
	// cannot race a request that is past the closed check.
	shutMu   sync.RWMutex
	closed   bool
	inflight sync.WaitGroup
}

// NewServer builds a Server from cfg.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("server: Config.Registry is required")
	}
	st := cfg.Stats
	if st == nil {
		st = obs.NewStats()
	}
	capacity := int64(cfg.MaxInFlight)
	if capacity < 1 {
		capacity = int64(runtime.NumCPU())
	}
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Registry,
		adm:         newAdmission(capacity, cfg.MaxQueue),
		cache:       newResultCache(cfg.CacheSize, st),
		st:          st,
		mux:         http.NewServeMux(),
		qdur:        obs.NewHistVec(obs.HistQueryDuration, nil, "dataset", "mode", "outcome"),
		admWait:     obs.NewHistogram(nil),
		cacheLookup: obs.NewHistogram(nil),
		queryLog:    cfg.QueryLog,
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	s.baseCtx, s.cancel = context.WithCancel(base)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	s.mux.HandleFunc("POST /admin/snapshot", s.handleSnapshot)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry returns the server's dataset registry (for SIGHUP-driven
// reloads).
func (s *Server) Registry() *Registry { return s.reg }

// Stats returns the stats sink carrying the server.* counters.
func (s *Server) Stats() *obs.Stats { return s.st }

// EffectiveParallelism resolves a request's Parallelism field for
// handleQuery: 0 means NumCPU, floors at 1, and clamps to the server's
// admission capacity. The cluster coordinator calls it too when it builds
// a merged report, so the Parallelism field of a scattered
// union response is byte-identical to the single-node one.
func (s *Server) EffectiveParallelism(requested int) int {
	par := requested
	if par == 0 {
		par = runtime.NumCPU()
	}
	if par < 1 {
		par = 1
	}
	return int(s.adm.clamp(int64(par)))
}

// WidthBound returns the server's configured global treewidth bound (0 when
// unbounded). The cluster coordinator replicates the width fast-reject
// before scattering, so a query the single node would 422 is never served
// merged.
func (s *Server) WidthBound() int { return s.cfg.WidthBound }

// Shutdown drains the server: new queries are rejected with 503, in-flight
// queries run to completion, and — if ctx expires first — their evaluation
// contexts are cancelled so the guard meters stop them at the next
// checkpoint. Shutdown returns once every in-flight query has finished,
// with ctx.Err() when the drain was forced.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutMu.Lock()
	s.closed = true
	s.shutMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// begin registers a request against the in-flight drain group, failing when
// the server is shutting down.
func (s *Server) begin() bool {
	s.shutMu.RLock()
	defer s.shutMu.RUnlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Request is the /v1/query document.
type Request struct {
	// Dataset names the registered database to evaluate against.
	Dataset string `json:"dataset"`
	// Query is the query text: algebraic ("SELECT ?x WHERE ..."), with
	// top-level UNION for unions of WDPTs, or the explicit tree format
	// ("ANS(?x) { ... }").
	Query string `json:"query"`
	// Mode is the evaluation mode (the wdpteval -mode vocabulary plus
	// exact-naive); empty means enumerate.
	Mode string `json:"mode,omitempty"`
	// Engine names the CQ engine (auto|naive|yannakakis|decomposition|
	// hypertree); empty means auto.
	Engine string `json:"engine,omitempty"`
	// Mapping is the candidate mapping h for the decision modes; "?" prefixes
	// on variable names are accepted and stripped.
	Mapping map[string]string `json:"mapping,omitempty"`
	// Parallelism is the Solve worker-pool bound: 1 sequential, 0 NumCPU.
	// Effective parallelism is clamped to the server's MaxInFlight.
	Parallelism int `json:"parallelism,omitempty"`
	// Budget bounds the evaluation; nil imposes no limits.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Fallback degrades a budget-tripped decision mode down the
	// exact → max → partial ladder instead of failing.
	Fallback bool `json:"fallback,omitempty"`
	// Stats includes the engine work counters in the response. Stats
	// responses bypass the result cache (counters vary run to run).
	Stats bool `json:"stats,omitempty"`
}

// BudgetSpec is the wire form of guard.Budget. Zero fields impose no limit.
type BudgetSpec struct {
	// WallMS is the wall-clock allowance in milliseconds.
	WallMS int64 `json:"wall_ms,omitempty"`
	// MaxTuples caps the intermediate tuples materialized.
	MaxTuples int64 `json:"max_tuples,omitempty"`
	// MaxAnswers caps (and truncates) the enumerated answers.
	MaxAnswers int64 `json:"max_answers,omitempty"`
}

// budget converts the wire form; a nil spec is the unlimited budget.
func (b *BudgetSpec) budget() guard.Budget {
	if b == nil {
		return guard.Budget{}
	}
	return guard.Budget{
		Wall:       time.Duration(b.WallMS) * time.Millisecond,
		MaxTuples:  b.MaxTuples,
		MaxAnswers: b.MaxAnswers,
	}
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Error is the typed payload.
	Error ErrorPayload `json:"error"`
}

// ErrorPayload is a typed error: a stable code from the guard taxonomy (or
// a request-validation code), the human-readable message, and — for budget
// trips — the progress the evaluation made before tripping, so clients can
// size budgets from observed failures.
type ErrorPayload struct {
	// Code is the stable machine-readable bucket: deadline, tuple_budget,
	// answer_limit, injected_fault, panic, canceled, error, or a
	// request-level code (bad_request, bad_query, bad_mode, bad_engine,
	// bad_budget, unknown_dataset, width_bound, queue_full, shutting_down,
	// reload_failed).
	Code string `json:"code"`
	// Message is the human-readable error.
	Message string `json:"message"`
	// Tuples is the meter's tuple reading when a budget tripped.
	Tuples int64 `json:"tuples,omitempty"`
	// Answers is the meter's answer reading when a budget tripped.
	Answers int64 `json:"answers,omitempty"`
	// ElapsedMS is the attempt's elapsed wall clock at the trip.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	// Status is "ok", or "draining" during shutdown.
	Status string `json:"status"`
	// Version is the registry generation.
	Version int64 `json:"version"`
	// Datasets lists the registered dataset names, sorted.
	Datasets []string `json:"datasets"`
	// InFlight is the admission weight currently held by evaluating queries.
	InFlight int64 `json:"in_flight"`
	// Queued is the admission wait-queue depth.
	Queued int `json:"queued"`
}

// DatasetList is the /v1/datasets body.
type DatasetList struct {
	// Version is the registry generation.
	Version int64 `json:"version"`
	// Datasets are the current snapshots, sorted by name.
	Datasets []*Dataset `json:"datasets"`
}

// ReloadResult is the /admin/reload success body.
type ReloadResult struct {
	// Version is the registry generation after the reload.
	Version int64 `json:"version"`
}

// SnapshotResult is the /admin/snapshot success body.
type SnapshotResult struct {
	// Version is the registry generation the snapshots capture.
	Version int64 `json:"version"`
	// Files are the snapshot file names written, sorted.
	Files []string `json:"files"`
}

// solver abstracts core.PatternTree.Solve and uwdpt.Union.Solve so the
// query handler evaluates both through one code path.
type solver interface {
	Solve(ctx context.Context, d *db.Database, opts core.SolveOptions) (core.Result, error)
}

// parseRequestQuery parses the request query text into a solver (a single
// WDPT or a union) and the member trees (for the width-bound check).
func parseRequestQuery(src string) (solver, []*core.PatternTree, error) {
	trimmed := strings.TrimSpace(src)
	if trimmed == "" {
		return nil, nil, fmt.Errorf("server: a query is required")
	}
	if strings.HasPrefix(strings.ToUpper(trimmed), "ANS") {
		p, err := sparql.ParseWDPT(trimmed)
		if err != nil {
			return nil, nil, err
		}
		return p, []*core.PatternTree{p}, nil
	}
	u, err := sparql.ParseUnionQuery(trimmed)
	if err != nil {
		return nil, nil, err
	}
	trees := u.Trees()
	if len(trees) == 1 {
		return trees[0], trees, nil
	}
	return u, trees, nil
}

// modeFromName resolves the wire-mode vocabulary.
func modeFromName(name string) (core.Mode, bool) {
	switch name {
	case "enumerate":
		return core.ModeEnumerate, true
	case "maximal":
		return core.ModeMaximal, true
	case "exact":
		return core.ModeExact, true
	case "exact-naive":
		return core.ModeExactNaive, true
	case "partial":
		return core.ModePartial, true
	case "max":
		return core.ModeMax, true
	}
	return 0, false
}

// RequestID returns the request's correlation ID: the client's X-Request-Id
// header when present, otherwise a fresh random 16-hex-digit ID. The ID is
// echoed on the response and stamped on every query-log line.
func RequestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Request-Id")); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// handleQuery is POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.st.Inc(obs.CtrServerRequests)
	if !s.begin() {
		writeError(w, http.StatusServiceUnavailable, ErrorPayload{Code: "shutting_down", Message: "server is shutting down"})
		return
	}
	defer s.inflight.Done()

	start := time.Now()
	reqID := RequestID(r)
	w.Header().Set("X-Request-Id", reqID)
	wantTrace := r.URL.Query().Get("trace") == "1"

	var req Request
	if err := DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrorPayload{Code: "bad_request", Message: err.Error()})
		return
	}
	ds, ok := s.reg.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorPayload{Code: "unknown_dataset", Message: fmt.Sprintf("unknown dataset %q", req.Dataset)})
		return
	}
	if req.Mode == "" {
		req.Mode = "enumerate"
	}
	mode, ok := modeFromName(req.Mode)
	if !ok {
		writeError(w, http.StatusBadRequest, ErrorPayload{Code: "bad_mode", Message: fmt.Sprintf("unknown mode %q", req.Mode)})
		return
	}

	// Past this point the dataset and mode are validated, so they are safe
	// histogram label values (bounded cardinality); everything below is
	// observed into the per-request histogram and the query log.
	collectSpans := wantTrace || (s.queryLog != nil && s.cfg.SlowQueryThreshold > 0)
	var (
		st      *obs.Stats
		tr      *obs.Collector
		root    obs.Span
		tree    []obs.SpanNode
		rootDur = time.Duration(-1)
	)
	if req.Stats || collectSpans {
		st = obs.NewStats()
	}
	if collectSpans {
		tr = &obs.Collector{}
		st.WithTrace(tr)
		root = st.StartSpan("query")
	}
	// endRoot closes the root span once and reconstructs the span tree; the
	// root's duration becomes the request's logged wall time, so ?trace=1
	// responses report exactly the wall time the query log carries.
	endRoot := func() []obs.SpanNode {
		if collectSpans && rootDur < 0 {
			root.End()
			tree = obs.BuildSpanTree(tr.Spans())
			for _, n := range tree {
				if n.Name == "query" {
					rootDur = time.Duration(n.DurationNS)
				}
			}
		}
		return tree
	}
	outcome := "ok"
	degradedTo := ""
	fail := func(status int, p ErrorPayload) {
		outcome = p.Code
		writeError(w, status, p)
	}
	defer func() {
		endRoot()
		wall := time.Since(start)
		if rootDur >= 0 {
			wall = rootDur
		}
		s.qdur.With(req.Dataset, req.Mode, outcome).Observe(wall)
		s.logQuery(r.Context(), reqID, &req, ds, outcome, degradedTo, st, wall, tree)
	}()

	if req.Engine == "" {
		req.Engine = "auto"
	}
	eng, err := cqeval.ByName(req.Engine)
	if err != nil {
		fail(http.StatusBadRequest, ErrorPayload{Code: "bad_engine", Message: "server: " + err.Error()})
		return
	}
	if b := req.Budget; b != nil && (b.WallMS < 0 || b.MaxTuples < 0 || b.MaxAnswers < 0) {
		fail(http.StatusBadRequest, ErrorPayload{Code: "bad_budget", Message: "budget fields must be non-negative"})
		return
	}
	// The mapping is normalized once, before the cache key is built, so the
	// key and the verdict see the same variables.
	h, err := requestMapping(req.Mapping)
	if err != nil {
		fail(http.StatusBadRequest, ErrorPayload{Code: "bad_request", Message: err.Error()})
		return
	}
	par := s.EffectiveParallelism(req.Parallelism)

	// The cache is consulted before the parse: a hit serves the body stored
	// for the same text as sent, and parses nothing. Skipping the parse and
	// the width check is sound because only 200 bodies of parsed,
	// width-checked queries are ever stored, and WidthBound is fixed for the
	// server's lifetime. Stats responses bypass the cache (counters vary run
	// to run); traced responses do too, in both directions, because the
	// trace is embedded in the body.
	cacheable := !req.Stats && !wantTrace
	var key resultKey
	if cacheable {
		key = cacheKey(ds, &req, h, par)
		lookupSpan := root.Child("cache_lookup")
		lookupStart := time.Now()
		body, hit := s.cache.get(key)
		s.cacheLookup.Observe(time.Since(lookupStart))
		lookupSpan.End()
		if hit {
			writeBody(w, http.StatusOK, body)
			return
		}
	}

	parseSpan := root.Child("parse")
	q, trees, err := parseRequestQuery(req.Query)
	parseSpan.End()
	if err != nil {
		fail(http.StatusBadRequest, ErrorPayload{Code: "bad_query", Message: err.Error()})
		return
	}
	if s.cfg.WidthBound > 0 {
		for _, t := range trees {
			if !t.GloballyIn(cq.TW(s.cfg.WidthBound)) {
				s.st.Inc(obs.CtrServerWidthRejects)
				fail(http.StatusUnprocessableEntity, ErrorPayload{
					Code:    "width_bound",
					Message: fmt.Sprintf("query exceeds the server treewidth bound %d", s.cfg.WidthBound),
				})
				return
			}
		}
	}

	// The evaluation context is the request's, additionally cancelled when
	// Shutdown forces the drain.
	ctx, cancelReq := context.WithCancel(r.Context())
	defer cancelReq()
	stop := context.AfterFunc(s.baseCtx, cancelReq)
	defer stop()

	admSpan := root.Child("admission_wait")
	admStart := time.Now()
	admErr := s.adm.acquire(ctx, int64(par))
	s.admWait.Observe(time.Since(admStart))
	admSpan.End()
	if admErr != nil {
		if errors.Is(admErr, errQueueFull) {
			s.st.Inc(obs.CtrServerAdmissionRejects)
			w.Header().Set("Retry-After", "1")
			fail(http.StatusTooManyRequests, ErrorPayload{Code: "queue_full", Message: "admission queue full; retry later"})
			return
		}
		outcome = s.writeEvalError(w, admErr)
		return
	}
	defer s.adm.release(int64(par))

	solveEng := eng
	if st != nil {
		solveEng = cqeval.WithStats(eng, st)
	}
	// The enumeration modes ignore Mapping and return their answers as ID
	// rows, which the encoder writes without building a mapping per answer.
	opts := core.SolveOptions{
		Mode:        mode,
		Mapping:     h,
		Engine:      solveEng,
		Parallelism: par,
		Budget:      req.Budget.budget(),
		Fallback:    req.Fallback,
		Rows:        true,
	}

	rep := report.Report{Mode: req.Mode, Engine: req.Engine, Parallelism: par}
	solveSpan := root.Child("solve")
	res, err := q.Solve(ctx, ds.DB, opts)
	solveSpan.End()
	var (
		evalErr error
		rows    *core.Rows
	)
	switch mode {
	case core.ModeEnumerate, core.ModeMaximal:
		if err != nil && !errors.Is(err, guard.ErrAnswerLimit) {
			outcome = s.writeEvalError(w, err)
			return
		}
		// An answer-limit trip still carries the truncated partial answer
		// set; it is served as 206.
		evalErr = err
		rep.NoteDegraded(res)
		rows = res.Rows
	default:
		if err != nil {
			outcome = s.writeEvalError(w, err)
			return
		}
		rep.NoteDegraded(res)
		rep.SetResult(res.Holds)
	}
	if rep.Degraded != nil && *rep.Degraded {
		outcome = "degraded"
		degradedTo = rep.DegradedMode
	}
	if evalErr != nil {
		outcome = report.ErrorCode(evalErr)
	}
	if req.Stats {
		rep.Counters = st.Snapshot()
	}
	if wantTrace {
		// The root span must close before the tree can ride in the body,
		// so a traced response's trace excludes only the final encode.
		rep.Trace = endRoot()
	}
	var encSpan obs.Span
	if !wantTrace {
		encSpan = root.Child("encode")
	}
	buf := bodyPool.Get().(*[]byte)
	var body []byte
	if rows != nil {
		body, err = report.AppendRows((*buf)[:0], rep, rows)
	} else {
		body, err = report.Append((*buf)[:0], rep)
	}
	encSpan.End()
	if err != nil {
		fail(http.StatusInternalServerError, ErrorPayload{Code: "error", Message: err.Error()})
		return
	}
	status := report.HTTPStatus(evalErr)
	writeBody(w, status, body)
	if status == http.StatusOK && cacheable {
		// The cache budgets bodies by length, so it keeps an exact-size
		// copy rather than the pooled buffer and its spare capacity.
		s.cache.put(key, bytes.Clone(body))
	}
	if cap(body) <= maxPooledBody {
		*buf = body[:0]
		bodyPool.Put(buf)
	}
}

// bodyPool holds the buffers /v1/query bodies are encoded into; the body
// is written out and copied into the cache before its buffer goes back.
// A buffer grown past maxPooledBody is left to the collector, so one large
// answer set does not stay resident.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 256 << 10

// requestMapping strips the optional "?" from each variable of a request
// mapping. A variable named twice ("?x" and "x") is an error naming the least
// such variable, so the verdict never depends on map iteration order.
func requestMapping(m map[string]string) (cq.Mapping, error) {
	h := make(cq.Mapping, len(m))
	twice := ""
	for k, v := range m {
		name := strings.TrimPrefix(k, "?")
		if _, seen := h[name]; seen && (twice == "" || name < twice) {
			twice = name
		}
		h[name] = v
	}
	if twice != "" {
		return nil, fmt.Errorf("variable %q is named twice in the mapping", twice)
	}
	return h, nil
}

// logQuery emits one structured query-log line for a finished /v1/query
// request; slow queries (≥ SlowQueryThreshold) are promoted to WARN with
// the span tree inline.
func (s *Server) logQuery(ctx context.Context, reqID string, req *Request, ds *Dataset, outcome, degradedTo string, st *obs.Stats, wall time.Duration, tree []obs.SpanNode) {
	if s.queryLog == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("request_id", reqID),
		slog.String("dataset", req.Dataset),
		slog.Int64("dataset_version", ds.Version),
		slog.String("mode", req.Mode),
		slog.String("engine", req.Engine),
		slog.String("outcome", outcome),
		slog.Int64("wall_ns", wall.Nanoseconds()),
	}
	if degradedTo != "" {
		attrs = append(attrs, slog.String("degraded_mode", degradedTo))
	}
	if b := req.Budget; b != nil {
		attrs = append(attrs,
			slog.Int64("budget_wall_ms", b.WallMS),
			slog.Int64("budget_max_tuples", b.MaxTuples),
			slog.Int64("budget_max_answers", b.MaxAnswers))
	}
	if counters := st.Snapshot(); len(counters) > 0 {
		attrs = append(attrs, slog.Any("counters", counters))
	}
	if s.cfg.SlowQueryThreshold > 0 && wall >= s.cfg.SlowQueryThreshold && len(tree) > 0 {
		attrs = append(attrs, slog.String("trace", obs.FormatSpanTree(tree)))
		s.queryLog.LogAttrs(ctx, slog.LevelWarn, "slow query", attrs...)
		return
	}
	s.queryLog.LogAttrs(ctx, slog.LevelInfo, "query", attrs...)
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.shutMu.RLock()
	status := "ok"
	if s.closed {
		status = "draining"
	}
	s.shutMu.RUnlock()
	inUse, queued := s.adm.load()
	list := s.reg.List()
	names := make([]string, 0, len(list))
	for _, ds := range list {
		names = append(names, ds.Name)
	}
	WriteJSON(w, http.StatusOK, Health{
		Status:   status,
		Version:  s.reg.Version(),
		Datasets: names,
		InFlight: inUse,
		Queued:   queued,
	})
}

// handleDatasets is GET /v1/datasets.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, DatasetList{Version: s.reg.Version(), Datasets: s.reg.List()})
}

// handleReload is POST /admin/reload: re-parse every dataset file and swap
// the snapshot set atomically. A failed reload keeps the previous snapshots
// serving and reports 500.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	version, err := s.reg.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrorPayload{Code: "reload_failed", Message: err.Error()})
		return
	}
	s.st.Inc(obs.CtrServerReloads)
	WriteJSON(w, http.StatusOK, ReloadResult{Version: version})
}

// handleSnapshot is POST /admin/snapshot: durably persist every current
// dataset to the registry's snapshot directory via the crash-safe writer.
// Without a -snapshot-dir the endpoint reports 400; a write failure
// reports 500 and leaves previously published snapshots intact.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.reg.SnapshotDir() == "" {
		writeError(w, http.StatusBadRequest, ErrorPayload{
			Code:    "no_snapshot_dir",
			Message: "server: snapshot persistence is disabled (start wdptd with -snapshot-dir)",
		})
		return
	}
	version, files, err := s.reg.SaveSnapshots()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrorPayload{Code: "snapshot_failed", Message: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, SnapshotResult{Version: version, Files: files})
}

// writeEvalError serves an evaluation error: status from the shared report
// taxonomy, a typed payload carrying the trip's progress readings, and a
// shutting_down override when the error is our own drain cancellation
// rather than the client's. It returns the code served, which doubles as
// the request's outcome label.
func (s *Server) writeEvalError(w http.ResponseWriter, err error) string {
	status, code := report.HTTPStatus(err), report.ErrorCode(err)
	if errors.Is(err, context.Canceled) && s.baseCtx.Err() != nil {
		status, code = http.StatusServiceUnavailable, "shutting_down"
	}
	p := ErrorPayload{Code: code, Message: err.Error()}
	var trip *guard.TripError
	if errors.As(err, &trip) {
		p.Tuples, p.Answers, p.ElapsedMS = trip.Tuples, trip.Answers, trip.Elapsed.Milliseconds()
	}
	writeError(w, status, p)
	return code
}

// writeError writes an ErrorResponse with the report encoder's formatting.
func writeError(w http.ResponseWriter, status int, p ErrorPayload) {
	WriteJSON(w, status, ErrorResponse{Error: p})
}

// WriteJSON writes v as a two-space-indented JSON document plus newline —
// the same framing as report.Encode, so every body the server produces
// renders identically.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":{"code":"error","message":"response encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(data, '\n'))
}

// writeBody writes a pre-encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
