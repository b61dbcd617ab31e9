package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// bench holds what every workload run shares.
type bench struct {
	root, bin, outDir string
	seed              int64
	window            time.Duration
	sizes             sizes
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// byteSamples is how many responses per workload are compared byte for
// byte with the library path (hot_repeat compares every distinct text).
const byteSamples = 32

// runWorkload measures one workload against real wdptd processes and fills
// EndToEnd; with traced it follows with the in-process replay and fills
// PerLayer too.
func (b *bench) runWorkload(ctx context.Context, name string, traced bool) (*runResult, error) {
	w, err := buildWorkload(name, b.seed, b.sizes)
	if err != nil {
		return nil, err
	}
	if err := w.fillExpectations(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := w.writeDatasets(dir); err != nil {
		return nil, err
	}

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	res := &runResult{EndToEnd: metrics{}, PerLayer: metrics{}}

	// Set-up, repeated: spawn → every node healthy → warm-up pass. The
	// last fleet stays up for the measured window.
	var f *fleet
	var conns []*conn
	closeConns := func() {
		for _, c := range conns {
			c.close()
		}
	}
	var setupTimes []float64
	for i := 0; i < b.setups; i++ {
		if f != nil {
			closeConns()
			f.stop()
		}
		t0 := time.Now()
		if f, err = startFleet(ctx, b.bin, dir, w, hc); err != nil {
			return nil, err
		}
		defer f.stop()
		conns = conns[:0]
		for c := 0; c < w.callers; c++ {
			cn, err := dial(f.front.base)
			if err != nil {
				return nil, err
			}
			conns = append(conns, cn)
		}
		if err := warmUp(conns[0], w); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer closeConns()
	// A signal kills the servers, which fails the callers' exchanges at
	// once instead of after their timeout.
	defer context.AfterFunc(ctx, f.stop)()

	rtt, err := healthzRTT(conns[0])
	if err != nil {
		return nil, err
	}
	before, err := scrapeFleet(ctx, hc, f)
	if err != nil {
		return nil, err
	}
	capture := samplePositions(w, b.seed)
	win, err := runWindow(ctx, conns, f, w, b.window, capture)
	if err != nil {
		return nil, err
	}
	after, err := scrapeFleet(ctx, hc, f)
	if err != nil {
		return nil, err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if len(win.samples) == 0 {
		return nil, fmt.Errorf("workload %s: no correct response in the window; first failures: %v", name, win.failures)
	}
	sent := win.attempted // compareBytes may add requests after the window
	checked, err := compareBytes(conns[0], w, capture, win)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Failures = win.attempted, win.failed, win.failures
	res.Samples, res.ByteChecked = len(win.samples), checked

	all := win.latenciesMS("")
	correct := float64(len(win.samples))
	e := res.EndToEnd
	e.set("setup_s", "s", median(setupTimes))
	e.set("latency_p50_ms", "ms", quantile(all, 0.50))
	e.set("latency_p95_ms", "ms", quantile(all, 0.95))
	e.set("throughput_rps", "1/s", correct/win.elapsed.Seconds())
	e.set("server_cpu_ms_per_req", "ms", 1000*win.serverCPU/correct)
	e.set("server_peak_rss_mb", "mb", rss)
	if !traced {
		return res, nil
	}

	p := res.PerLayer
	clientMetrics(p, win, rtt)
	scrapedMetrics(p, w, win, sent, before, after)
	f.stop() // the replay measures alone
	replayed, err := traceReplay(w, dir, b.outDir, b.seed, p)
	if err != nil {
		return nil, err
	}
	res.Attempted += replayed.attempted
	res.Failed += replayed.failed
	res.Failures = append(res.Failures, replayed.failures...)
	return res, nil
}

// warmUp sends every warm-up request once and checks it, so lazy index
// builds (and for hot_repeat the cache fill) are inside set-up.
func warmUp(c *conn, w *workload) error {
	var buf bytes.Buffer
	for i := range w.warm {
		r := &w.warm[i]
		status, err := c.post(r.body, &buf)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.kind, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %.200s", r.kind, status, buf.Bytes())
		}
		if _, err := checkOutcome(r, buf.Bytes()); err != nil {
			return fmt.Errorf("warm-up %s: %w", r.kind, err)
		}
	}
	return nil
}

// healthzRTT returns the median round trip, in µs, of GET /healthz on a
// caller's connection: the HTTP floor under every latency sample.
func healthzRTT(c *conn) (float64, error) {
	var rtts []float64
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if status, err := c.roundTrip("GET", "/healthz", nil, &buf); err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("GET /healthz: status %d: %v", status, err)
		}
		rtts = append(rtts, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(rtts), nil
}

// samplePositions picks the stream positions whose bodies are compared
// byte for byte: a seeded sample among the leading positions a window
// reaches. hot_repeat instead compares every distinct text after the
// window (compareBytes), since its stream is draws from those.
func samplePositions(w *workload, seed int64) map[int]bool {
	if w.name == "hot_repeat" {
		return nil
	}
	span := 4 * byteSamples
	rng := workloadRNG(seed, w.name+"/sample")
	out := map[int]bool{}
	for _, pos := range rng.Perm(span)[:byteSamples] {
		out[pos] = true
	}
	return out
}

// compareBytes checks the sampled responses against the library path,
// first fetching any sampled position the window did not reach. Mismatches
// count as failures of the window. It returns the number compared.
func compareBytes(c *conn, w *workload, capture map[int]bool, win *window) (int, error) {
	type pair struct {
		r    *request
		body []byte
	}
	var pairs []pair
	fetch := func(r *request) error {
		var buf bytes.Buffer
		win.attempted++
		status, err := c.post(r.body, &buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			win.fail("byte check (%s): status %d", r.kind, status)
			return nil
		}
		pairs = append(pairs, pair{r, buf.Bytes()})
		return nil
	}
	if capture == nil {
		for i := range w.warm {
			if err := fetch(&w.warm[i]); err != nil {
				return 0, err
			}
		}
	}
	positions := make([]int, 0, len(capture))
	for pos := range capture {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	for _, pos := range positions {
		r := &w.stream[pos%len(w.stream)]
		if body, ok := win.captured[pos]; ok {
			pairs = append(pairs, pair{r, body})
		} else if err := fetch(r); err != nil {
			return 0, err
		}
	}

	// The servers are idle now, so the library path gets both cores.
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := half; i < len(pairs); i += 2 {
				want, _, err := libraryBody(pairs[i].r, w.database(pairs[i].r.req.Dataset))
				if err != nil {
					errs[i] = err
				} else if !bytes.Equal(want, pairs[i].body) {
					errs[i] = fmt.Errorf("%d bytes served, library path gives %d", len(pairs[i].body), len(want))
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			win.fail("byte check (%s): %v", pairs[i].r.kind, err)
		}
	}
	return len(pairs), nil
}

// kinds lists every query kind of every workload; each has a
// client.kind.<kind>.p50_ms row, 0 where the workload does not send it.
var kinds = []string{
	"path_d5", "path_d4", "band_enum", "band_maximal", "exact", "partial", "max",
	"full_tree", "union_enum", "union_maximal", "single_proxied",
}

// clientMetrics fills the client.* diagnostics of the measured window.
func clientMetrics(p metrics, win *window, rttUS float64) {
	all := win.latenciesMS("")
	p.set("client.samples", "count", float64(len(all)))
	p99 := 0.0
	if len(all) >= 1000 { // below that, fewer than ten samples lie beyond it
		p99 = quantile(all, 0.99)
	}
	p.set("client.latency_p99_ms", "ms", p99)
	p.set("client.max_ms", "ms", all[len(all)-1])
	for _, kind := range kinds {
		p.set("client.kind."+kind+".p50_ms", "ms", quantile(win.latenciesMS(kind), 0.5))
	}
	var bytesTotal, answers float64
	for _, s := range win.samples {
		bytesTotal += float64(s.bytes)
		answers += float64(s.answers)
	}
	n := float64(len(win.samples))
	p.set("client.bytes_per_resp", "bytes", bytesTotal/n)
	p.set("client.answers_per_req", "count", answers/n)
	p.set("client.healthz_rtt_us", "us", rttUS)
	p.set("client.generator_cpu_share", "ratio", win.selfCPU/(win.selfCPU+win.serverCPU))
}

// scrapedMetrics fills the server-side ratios from the /metrics readings
// taken right before and right after the window.
func scrapedMetrics(p metrics, w *workload, win *window, sent int, before, after []*scrape) {
	attempted := float64(sent)
	hits := delta(before, after, "wdpt_server_cache_hits_total")
	misses := delta(before, after, "wdpt_server_cache_misses_total")
	p.set("server.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	p.set("server.cache_evictions_per_req", "count", ratio(delta(before, after, "wdpt_server_cache_evictions_total"), attempted))
	admission := 0.0
	for i := range after {
		admission = max(admission, histogramQuantile(before[i], after[i], "wdptd_admission_wait_seconds", 0.95, nil))
	}
	p.set("server.admission_wait_p95_us", "us", admission*1e6)
	p.set("server.gc_pause_ms_per_s", "ms/s", 1000*delta(before, after, "go_gc_pause_seconds_total")/win.elapsed.Seconds())

	// The cluster rows stay 0 on the single-node workloads. Stream positions
	// are handed out in order, so the window sent exactly the first sent.
	var scatter, fallbacks, proxied, failovers, peerP50 float64
	if w.cluster {
		unions := 0.0
		for pos := 0; pos < sent; pos++ {
			if w.stream[pos%len(w.stream)].kind != "single_proxied" {
				unions++
			}
		}
		front := len(after) - 1 // the coordinator starts last
		scatter = ratio(delta(before, after, "wdpt_cluster_scatters_total"), unions)
		fallbacks = delta(before, after, "wdpt_cluster_scatter_fallbacks_total")
		proxied = ratio(delta(before, after, "wdpt_cluster_route_proxied_total"), attempted-unions)
		failovers = delta(before, after, "wdpt_cluster_failovers_total")
		peerP50 = 1000 * histogramQuantile(before[front], after[front], "wdptd_cluster_peer_latency_seconds", 0.5,
			func(labels map[string]string) bool { return labels["kind"] != "probe" })
	}
	p.set("cluster.scatter_ratio", "ratio", scatter)
	p.set("cluster.scatter_fallbacks", "count", fallbacks)
	p.set("cluster.route_proxied_ratio", "ratio", proxied)
	p.set("cluster.failovers", "count", failovers)
	p.set("cluster.peer_latency_p50_ms", "ms", peerP50)
}
