package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"wdpt/internal/cluster"
	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/server"
	"wdpt/internal/sparql"
)

// span is one timed call into a layer. Times are ns since the replay began;
// Parent indexes the span that caused this one (-1 for none); spans of one
// request share Request (warm-up requests count down from -1).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the replay ends. A nil tracer records
// nothing, which is how the replay runs the same calls bare to price the
// tracing itself.
type tracer struct {
	t0    time.Time
	spans []span
}

// cost is what one traced call took.
type cost struct {
	span         int
	dur          time.Duration
	mallocs, kib float64
}

// call runs f as a span under parent and reports its duration and, from
// runtime.MemStats deltas read outside the timed region, its allocations.
func (t *tracer) call(name string, parent, request int, f func()) cost {
	if t == nil {
		f()
		return cost{span: -1}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: request})
	start := time.Now()
	f()
	end := time.Now()
	runtime.ReadMemStats(&after)
	t.spans[idx].Start, t.spans[idx].End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return cost{
		span: idx, dur: end.Sub(start),
		mallocs: float64(after.Mallocs - before.Mallocs),
		kib:     float64(after.TotalAlloc-before.TotalAlloc) / 1024,
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[i])
	}
	return out
}

// stack is the in-process serving stack the replay drives: what wdptd
// builds from the same files and flags.
type stack struct {
	front  http.Handler
	local  *server.Server
	reg    *server.Registry
	coord  *cluster.Coordinator
	close  func()
	member struct { // slowest member handler time since the last reset
		mu  sync.Mutex
		max time.Duration
	}
}

func newServer(w *workload, dir string) (*server.Server, *server.Registry, error) {
	cfg := server.RegistryConfig{Specs: map[string]string{}}
	for _, ds := range w.datasets {
		cfg.Specs[ds.name] = filepath.Join(dir, ds.name+".txt")
	}
	if w.cluster {
		cfg.SnapshotDir = dir
	}
	reg, err := server.NewRegistryWithConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	// wdptd's defaults for -max-queue and -cache.
	srv, err := server.NewServer(server.Config{Registry: reg, MaxQueue: 16, CacheSize: cacheEntries})
	return srv, reg, err
}

func newStack(w *workload, dir string) (*stack, error) {
	s := &stack{close: func() {}}
	var err error
	if s.local, s.reg, err = newServer(w, dir); err != nil {
		return nil, err
	}
	s.front = s.local
	if !w.cluster {
		return s, nil
	}
	var peers []string
	var members []*httptest.Server
	s.close = func() {
		if s.coord != nil {
			s.coord.Close()
		}
		for _, m := range members {
			m.Close()
		}
	}
	for i := 0; i < 2; i++ {
		srv, _, err := newServer(w, dir)
		if err != nil {
			s.close()
			return nil, err
		}
		timed := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			start := time.Now()
			srv.ServeHTTP(rw, r)
			d := time.Since(start)
			s.member.mu.Lock()
			s.member.max = max(s.member.max, d)
			s.member.mu.Unlock()
		})
		m := httptest.NewServer(timed)
		members = append(members, m)
		peers = append(peers, m.URL)
	}
	if s.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{Local: s.local, Peers: peers}); err != nil {
		s.close()
		return nil, err
	}
	s.front = s.coord
	return s, nil
}

// slowestMember returns and resets the slowest member handler time.
func (s *stack) slowestMember() time.Duration {
	s.member.mu.Lock()
	defer s.member.mu.Unlock()
	d := s.member.max
	s.member.max = 0
	return d
}

// replayed is one stream request's record across the replay passes.
type replayed struct {
	hit                        bool
	handler                    cost
	parse, solve, sort, encode cost
	union                      bool
	answers, bodyBytes         int
	coordOverhead              time.Duration
	trees                      []*core.PatternTree
	// bindings are up to eight of the request's answers, evenly spaced over
	// the sorted list. Whole answer lists are not kept: they would grow the
	// heap from request to request and slow the later ones' collections.
	bindings []cq.Mapping
}

// replayOutcome carries the replay's checks back to the run.
type replayOutcome struct {
	attempted, failed int
	failures          []string
}

// traceReplay replays the warm-up and the first w.traceN stream requests in
// process, on one goroutine at GOMAXPROCS=1. Each stream request runs three
// times back to back — through the front handler, layer by layer with
// spans, and layer by layer bare — so that the three are compared within
// the same second: this machine's speed drifts by a tenth over minutes.
// Then the layers under the solver are probed directly. It fills p and
// writes the spans to trace_<workload>.json.
func traceReplay(w *workload, dir, outDir string, seed int64, p metrics) (*replayOutcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st, err := newStack(w, dir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	t := &tracer{t0: time.Now()}
	out := &replayOutcome{}

	handlerName := "server.handler"
	if w.cluster {
		handlerName = "cluster.coordinator"
	}
	// serve sends r through the front handler and reports whether the local
	// result cache answered it.
	serve := func(r *request, id int) (cost, bool) {
		hits := st.local.Stats().Get(obs.CtrServerCacheHits)
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(r.body))
		c := t.call(handlerName, -1, id, func() { st.front.ServeHTTP(rec, hreq) })
		out.attempted++
		var err error
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
		} else {
			_, err = checkOutcome(r, rec.Body.Bytes())
		}
		if err != nil {
			out.failed++
			if len(out.failures) < keptFailures {
				out.failures = append(out.failures, fmt.Sprintf("replay %d (%s): %v", id, r.kind, err))
			}
		}
		return c, st.local.Stats().Get(obs.CtrServerCacheHits) > hits
	}

	// layers runs request i the way the handler does, one public call at a
	// time. A request the handler served from its cache only parses: a hit
	// stops before the solver. The sort is timed on a seeded shuffle of the
	// answer list, so that it does not depend on the order the solver
	// happens to emit.
	recs := make([]replayed, min(w.traceN, len(w.stream)))
	rng := workloadRNG(seed, w.name+"/sort")
	layers := func(t *tracer, sink *obs.Stats, i int) (time.Duration, error) {
		rec, r := &recs[i], &w.stream[i]
		d := st.database(r.req.Dataset)
		start := time.Now()
		root := -1
		if t != nil {
			root = len(t.spans)
			t.spans = append(t.spans, span{Name: "request", Parent: -1, Request: i, Start: start.Sub(t.t0).Nanoseconds()})
		}
		var q solver
		var err error
		parse := t.call("sparql.parse", root, i, func() { q, rec.trees, err = parseQuery(r.req.Query) })
		if err != nil {
			return 0, err
		}
		var solve, sort, encode cost
		var sorted []cq.Mapping
		var buf bytes.Buffer
		if !rec.hit {
			_, rec.union = q.(interface{ Trees() []*core.PatternTree })
			name := "core.solve"
			if rec.union {
				name = "uwdpt.solve"
			}
			var res core.Result
			solve = t.call(name, root, i, func() { res, err = q.Solve(context.Background(), d, solveOptions(&r.req, sink)) })
			if err != nil {
				return 0, err
			}
			sorted = shuffled(res.Answers, rng)
			sort = t.call("cq.sort", root, i, func() { sorted = cq.SortSolutions(sorted) })
			encode = t.call("report.encode", root, i, func() { err = report.Encode(&buf, newReport(&r.req, res, sorted)) })
			if err != nil {
				return 0, err
			}
		}
		if t == nil {
			return time.Since(start), nil
		}
		t.spans[root].End = time.Since(t.t0).Nanoseconds()
		rec.parse, rec.solve, rec.sort, rec.encode = parse, solve, sort, encode
		rec.answers, rec.bodyBytes = len(sorted), buf.Len()
		for k := 0; k < 8 && k < len(sorted); k++ {
			rec.bindings = append(rec.bindings, sorted[k*len(sorted)/min(8, len(sorted))])
		}
		return time.Duration(t.spans[root].End - t.spans[root].Start), nil
	}

	var missHandler, hitHandler []cost
	note := func(c cost, hit bool) {
		if hit {
			hitHandler = append(hitHandler, c)
		} else {
			missHandler = append(missHandler, c)
		}
	}
	for i := range w.warm {
		note(serve(&w.warm[i], -1-i))
	}
	counters := obs.NewStats()
	var tracedTime, bareTime time.Duration
	for i := range recs {
		rec := &recs[i]
		st.slowestMember()
		rec.handler, rec.hit = serve(&w.stream[i], i)
		note(rec.handler, rec.hit)
		if w.cluster {
			rec.coordOverhead = rec.handler.dur - st.slowestMember()
		}
		order := [2]*tracer{t, nil} // traced first on even requests, bare first on odd ones
		if i%2 == 1 {
			order = [2]*tracer{nil, t}
		}
		for _, tr := range order {
			if tr != nil {
				d, err := layers(tr, counters, i)
				if err != nil {
					return nil, err
				}
				tracedTime += d
			} else {
				d, err := layers(nil, nil, i)
				if err != nil {
					return nil, err
				}
				bareTime += d
			}
		}
	}

	layerMetrics(p, w, recs, missHandler, hitHandler, counters)
	p.set("trace.overhead_ratio", "ratio", (tracedTime.Seconds()-bareTime.Seconds())/bareTime.Seconds())
	probeEngines(p, t, w, st, recs)
	if err := probeStorage(p, t, w, seed); err != nil {
		return nil, err
	}
	probeRing(p, t, st)

	data, err := json.Marshal(struct {
		Workload string                   `json:"workload"`
		SelfNS   map[string]time.Duration `json:"self_time_ns"`
		Spans    []span                   `json:"spans"`
	}{w.name, selfTimes(t.spans), t.spans})
	if err != nil {
		return nil, err
	}
	return out, os.WriteFile(filepath.Join(outDir, "trace_"+w.name+".json"), data, 0o644)
}

func (s *stack) database(name string) *db.Database {
	ds, ok := s.reg.Get(name)
	if !ok {
		panic("replay registry has no dataset " + name)
	}
	return ds.DB
}

// ratio is num ÷ den, 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// shuffled returns a seeded shuffle of xs, leaving xs alone.
func shuffled[T any](xs []T, rng *rand.Rand) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mean returns the mean of f over xs, 0 for none.
func mean[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += f(x)
	}
	return total / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics derives the per-request layer numbers from the replay
// records and the counters the solver wrote while it ran traced.
func layerMetrics(p metrics, w *workload, recs []replayed, missHandler, hitHandler []cost, counters *obs.Stats) {
	n := float64(len(recs))
	perReq := func(c obs.Counter) float64 { return float64(counters.Get(c)) / n }
	var solved, trees, unions []replayed
	var handlerTotal, layerTotal, solveTotal, sortTotal time.Duration
	var treeAnswers, allAnswers, bodyBytes float64
	var overheads []float64
	for _, r := range recs {
		handlerTotal += r.handler.dur
		layerTotal += r.parse.dur + r.solve.dur + r.sort.dur + r.encode.dur
		if r.hit {
			continue
		}
		solved = append(solved, r)
		if r.union {
			unions = append(unions, r)
		} else {
			trees = append(trees, r)
			solveTotal += r.solve.dur
			treeAnswers += float64(r.answers)
		}
		sortTotal += r.sort.dur
		allAnswers += float64(r.answers)
		bodyBytes += float64(r.bodyBytes)
		overheads = append(overheads, us(r.handler.dur-r.parse.dur-r.solve.dur-r.sort.dur-r.encode.dur))
	}

	p.set("sparql.parse_query_us", "us", mean(recs, func(r replayed) float64 { return us(r.parse.dur) }))
	p.set("sparql.parse_query_allocs", "count", mean(recs, func(r replayed) float64 { return r.parse.mallocs }))

	p.set("db.index_probes_per_req", "count", perReq(obs.CtrIndexProbes))
	p.set("db.index_probe_rows_per_req", "count", perReq(obs.CtrIndexProbeRows))
	p.set("db.dict_lookups_per_req", "count", perReq(obs.CtrDictLookups))

	p.set("cq.sort_us_per_kanswer", "us", ratio(1000*us(sortTotal), allAnswers))
	p.set("cq.tuples_scanned_per_req", "count", perReq(obs.CtrTuplesScanned))

	planHits, planMisses := float64(counters.Get(obs.CtrPlanCacheHits)), float64(counters.Get(obs.CtrPlanCacheMisses))
	p.set("cqeval.plan_cache_hit_ratio", "ratio", ratio(planHits, planHits+planMisses))
	p.set("cqeval.join_trees_built_per_req", "count", perReq(obs.CtrJoinTreesBuilt))
	p.set("cqeval.bag_rows_per_req", "count", perReq(obs.CtrBagRows))
	p.set("cqeval.semijoin_passes_per_req", "count", perReq(obs.CtrSemijoinPasses))
	p.set("cqeval.project_calls_per_req", "count", perReq(obs.CtrProjectCalls))
	p.set("cqeval.satisfiable_calls_per_req", "count", perReq(obs.CtrSatisfiableCalls))

	p.set("core.solve_ms", "ms", mean(trees, func(r replayed) float64 { return ms(r.solve.dur) }))
	p.set("core.solve_share", "ratio", ratio(solveTotal.Seconds(), handlerTotal.Seconds()))
	p.set("core.solve_us_per_answer", "us", ratio(us(solveTotal), treeAnswers))
	p.set("core.solve_allocs_per_req", "count", mean(trees, func(r replayed) float64 { return r.solve.mallocs }))
	p.set("core.solve_alloc_kb_per_req", "kb", mean(trees, func(r replayed) float64 { return r.solve.kib }))
	p.set("core.bands_enumerated_per_req", "count", perReq(obs.CtrBandsEnumerated))
	p.set("core.extension_units_tested_per_req", "count", perReq(obs.CtrExtensionUnits))
	p.set("core.maximality_checks_per_req", "count", perReq(obs.CtrMaximalityChecks))
	memoHits, memoMisses := float64(counters.Get(obs.CtrInterfaceMemoHits)), float64(counters.Get(obs.CtrInterfaceMemoMisses))
	p.set("core.interface_memo_hit_ratio", "ratio", ratio(memoHits, memoHits+memoMisses))

	p.set("uwdpt.solve_ms", "ms", mean(unions, func(r replayed) float64 { return ms(r.solve.dur) }))
	p.set("uwdpt.member_evals_per_req", "count", perReq(obs.CtrUnionMemberEvals))

	p.set("report.encode_us", "us", mean(solved, func(r replayed) float64 { return us(r.encode.dur) }))
	p.set("report.encode_allocs", "count", mean(solved, func(r replayed) float64 { return r.encode.mallocs }))
	p.set("report.bytes_per_answer", "bytes", ratio(bodyBytes, allAnswers))

	p.set("server.handler_ms", "ms", mean(missHandler, func(c cost) float64 { return ms(c.dur) }))
	p.set("server.hit_us", "us", mean(hitHandler, func(c cost) float64 { return us(c.dur) }))
	p.set("server.overhead_us", "us", mean(overheads, func(v float64) float64 { return v }))
	p.set("server.handler_allocs_per_req", "count", mean(recs, func(r replayed) float64 { return r.handler.mallocs }))
	p.set("server.handler_alloc_kb_per_req", "kb", mean(recs, func(r replayed) float64 { return r.handler.kib }))

	coord := 0.0
	if w.cluster {
		coord = mean(recs, func(r replayed) float64 { return ms(r.coordOverhead) })
	}
	p.set("cluster.coord_overhead_ms", "ms", coord)
	p.set("trace.unattributed_ratio", "ratio", ratio(handlerTotal.Seconds()-layerTotal.Seconds(), handlerTotal.Seconds()))
}

// probeEngines times the layers under the solver on the stream's own node
// CQs: plan construction on a fresh engine and projection and
// satisfiability on a warm one, for every root CQ under the request's
// candidate mapping; and the backtracking satisfiability check core runs
// per candidate — child-node atoms under an answer's bindings.
func probeEngines(p metrics, t *tracer, w *workload, st *stack, recs []replayed) {
	var cold, project, satisfiable, sat []float64
	warm := cqeval.Auto()
	for _, pass := range []*tracer{nil, t} { // the first, untraced pass warms the engine's plan cache
		project, satisfiable = project[:0], satisfiable[:0]
		for i := range recs {
			rec, r := &recs[i], &w.stream[i]
			d := st.database(r.req.Dataset)
			for _, tree := range rec.trees {
				root := tree.Root()
				fixed := cq.Mapping(r.req.Mapping).Restrict(root.Vars())
				project = append(project, us(pass.call("cqeval.project", -1, i, func() { warm.Project(root.Atoms(), d, fixed, root.Vars()) }).dur))
				satisfiable = append(satisfiable, us(pass.call("cqeval.satisfiable", -1, i, func() { warm.Satisfiable(root.Atoms(), d, fixed) }).dur))
			}
		}
	}
	for i := range recs {
		rec, r := &recs[i], &w.stream[i]
		d := st.database(r.req.Dataset)
		for _, tree := range rec.trees {
			root := tree.Root()
			fixed := cq.Mapping(r.req.Mapping).Restrict(root.Vars())
			cold = append(cold, us(t.call("cqeval.plan_cold", -1, i, func() { cqeval.Auto().Explain(root.Atoms(), d, fixed) }).dur))
			bindings := rec.bindings
			if len(bindings) == 0 {
				bindings = []cq.Mapping{cq.Mapping(r.req.Mapping)}
			}
			for _, node := range tree.Nodes()[1:] {
				for _, h := range bindings {
					sat = append(sat, us(t.call("cq.satisfiable", -1, i, func() { cq.SatisfiableObs(node.Atoms(), d, h, nil, nil) }).dur))
				}
			}
		}
	}
	id := func(v float64) float64 { return v }
	p.set("cqeval.plan_cold_us", "us", mean(cold, id))
	p.set("cqeval.project_us", "us", mean(project, id))
	p.set("cqeval.satisfiable_us", "us", mean(satisfiable, id))
	p.set("cq.satisfiable_us", "us", mean(sat, id))
}

// probeStorage times the storage layer on the workload's largest dataset:
// text parse, first-probe index builds on a fresh database, warm probes on
// a seeded key sample, and the snapshot codec.
func probeStorage(p metrics, t *tracer, w *workload, seed int64) error {
	var largest dataset
	var fresh *db.Database // largest, parsed anew: no index built yet
	var err error
	parseMS := 0.0
	for _, ds := range w.datasets {
		var d *db.Database
		parseMS += ms(t.call("sparql.parse_db", -1, -1, func() { d, err = sparql.ParseDatabase(ds.text) }).dur)
		if err != nil {
			return fmt.Errorf("parsing dataset %s: %w", ds.name, err)
		}
		if fresh == nil || ds.db.Size() > largest.db.Size() {
			largest, fresh = ds, d
		}
	}
	p.set("sparql.parse_db_ms", "ms", parseMS)

	type key struct {
		rel *db.Relation
		pos int
		id  uint32
	}
	rng := workloadRNG(seed, w.name+"/probe")
	var keys []key
	var rows [][]uint32
	var rels []*db.Relation
	buildMS := 0.0
	for _, rel := range fresh.Relations() {
		cols := rel.Columns()
		for pos := range cols {
			buildMS += ms(t.call("db.index_build", -1, -1, func() { rel.MatchingIDs(pos, cols[pos][0]) }).dur)
		}
		for k := 0; k < 256; k++ {
			i := rng.Intn(rel.Len())
			pos := rng.Intn(len(cols))
			keys = append(keys, key{rel, pos, cols[pos][i]})
			row := make([]uint32, len(cols))
			for c := range cols {
				row[c] = cols[c][i]
			}
			rows, rels = append(rows, row), append(rels, rel)
		}
	}
	p.set("db.index_build_ms", "ms", buildMS)

	const rounds = 200
	matched := 0
	probe := t.call("db.probe", -1, -1, func() {
		for round := 0; round < rounds; round++ {
			for _, k := range keys {
				matched += len(k.rel.MatchingIDs(k.pos, k.id))
			}
		}
	})
	calls := float64(rounds * len(keys))
	p.set("db.probe_ns", "ns", float64(probe.dur)/calls)
	p.set("db.probe_rows_per_call", "count", float64(matched)/calls)
	found := 0
	contains := t.call("db.contains", -1, -1, func() {
		for round := 0; round < rounds; round++ {
			for i, row := range rows {
				if rels[i].ContainsIDs(row) {
					found++
				}
			}
		}
	})
	p.set("db.contains_ns", "ns", float64(contains.dur)/calls)
	if found != rounds*len(rows) {
		return fmt.Errorf("ContainsIDs missed a row sampled from relation data of %s", largest.name)
	}

	var encoded []byte
	var encMS, decMS []float64
	for i := 0; i < 5; i++ {
		encMS = append(encMS, ms(t.call("snapshot.encode", -1, -1, func() { encoded, err = snapshot.Encode(largest.db) }).dur))
		if err != nil {
			return fmt.Errorf("snapshot of %s: %w", largest.name, err)
		}
		decMS = append(decMS, ms(t.call("snapshot.decode", -1, -1, func() { _, err = snapshot.Decode(encoded, db.DefaultBackend()) }).dur))
		if err != nil {
			return fmt.Errorf("snapshot of %s: %w", largest.name, err)
		}
	}
	p.set("snapshot.encode_ms", "ms", median(encMS))
	p.set("snapshot.decode_ms", "ms", median(decMS))
	p.set("snapshot.bytes_per_fact", "bytes", float64(len(encoded))/float64(largest.db.Size()))
	return nil
}

// probeRing times consistent-hash owner lookups on the coordinator's ring;
// 0 on the single-node workloads, which never cross it.
func probeRing(p metrics, t *tracer, st *stack) {
	if st.coord == nil {
		p.set("cluster.ring_owner_ns", "ns", 0)
		return
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("dataset%d", i)
	}
	const rounds = 100
	c := t.call("cluster.ring_owner", -1, -1, func() {
		for round := 0; round < rounds; round++ {
			for _, k := range keys {
				st.coord.Ring().Owner(k)
			}
		}
	})
	p.set("cluster.ring_owner_ns", "ns", float64(c.dur)/float64(rounds*len(keys)))
}
