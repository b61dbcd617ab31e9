package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wdpt/internal/obs"
)

// newHTTPClient returns the client for readiness polls and /metrics
// scrapes; the measured exchanges go through conn.
func newHTTPClient() *http.Client {
	return &http.Client{Timeout: exchangeTimeout}
}

// sample is one measured exchange.
type sample struct {
	kind    string
	latency time.Duration
	bytes   int
	answers int
}

// window is what the callers saw over one measured window.
type window struct {
	elapsed   time.Duration
	attempted int
	samples   []sample // correct responses only
	// failures describes failed exchanges (transport error, status other
	// than 200, or a wrong count or verdict); only the first few are kept.
	failures  []string
	failed    int
	captured  map[int][]byte // stream position → body, for the byte comparison
	serverCPU float64        // seconds, all server processes
	selfCPU   float64        // seconds, this process
}

const keptFailures = 10

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < keptFailures {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWindow drives the closed loop, one caller per connection: each takes
// the next stream position, sends it, waits for the whole body, checks it,
// and only then takes another. Bodies at the positions in capture are kept.
func runWindow(ctx context.Context, conns []*conn, f *fleet, w *workload, d time.Duration, capture map[int]bool) (*window, error) {
	cpu0, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	var (
		next  atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		total = &window{captured: map[int][]byte{}}
	)
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := &window{captured: map[int][]byte{}}
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				pos := int(next.Add(1) - 1)
				r := &w.stream[pos%len(w.stream)]
				t0 := time.Now()
				status, err := c.post(r.body, &buf)
				lat := time.Since(t0)
				local.attempted++
				if err != nil {
					local.fail("position %d (%s): %v", pos, r.kind, err)
					continue
				}
				if status != http.StatusOK {
					local.fail("position %d (%s): status %d: %.200s", pos, r.kind, status, buf.Bytes())
					continue
				}
				answers, err := checkOutcome(r, buf.Bytes())
				if err != nil {
					local.fail("position %d (%s): %v", pos, r.kind, err)
					continue
				}
				local.samples = append(local.samples, sample{kind: r.kind, latency: lat, bytes: buf.Len(), answers: answers})
				if capture[pos] {
					local.captured[pos] = bytes.Clone(buf.Bytes())
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total.attempted += local.attempted
			total.failed += local.failed
			total.samples = append(total.samples, local.samples...)
			total.failures = append(total.failures, local.failures...)
			for pos, body := range local.captured {
				total.captured[pos] = body
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: the servers are already gone
	}
	total.elapsed = time.Since(start)
	if len(total.failures) > keptFailures {
		total.failures = total.failures[:keptFailures]
	}
	cpu1, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	total.serverCPU, total.selfCPU = cpu1-cpu0, selfCPUSeconds()-self0
	return total, nil
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latenciesMS returns the sorted latencies, in ms, of the samples of one
// kind, or of all kinds when kind is empty.
func (w *window) latenciesMS(kind string) []float64 {
	var out []float64
	for _, s := range w.samples {
		if kind == "" || s.kind == kind {
			out = append(out, float64(s.latency)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// scrape is one reading of a node's /metrics: unlabelled samples by name,
// and every family for the labelled histograms.
type scrape struct {
	values   map[string]float64
	families map[string]*obs.PromFamily
}

func scrapeNode(ctx context.Context, hc *http.Client, n *node) (*scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	text, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParsePromText(string(text))
	if err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", n.base, err)
	}
	s := &scrape{values: map[string]float64{}, families: fams}
	for _, fam := range fams {
		for _, smp := range fam.Samples {
			if len(smp.Labels) == 0 {
				s.values[smp.Name] = smp.Value
			}
		}
	}
	return s, nil
}

// scrapeFleet reads every node's /metrics, in f.nodes order.
func scrapeFleet(ctx context.Context, hc *http.Client, f *fleet) ([]*scrape, error) {
	out := make([]*scrape, len(f.nodes))
	for i, n := range f.nodes {
		s, err := scrapeNode(ctx, hc, n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// delta sums, over the nodes, how much the unlabelled sample grew between
// two fleet scrapes.
func delta(before, after []*scrape, name string) float64 {
	total := 0.0
	for i := range after {
		total += after[i].values[name] - before[i].values[name]
	}
	return total
}

// histogramQuantile returns the q-quantile, in seconds, of the
// observations a histogram family gained between two scrapes of one node,
// summed over its label sets that keep(labels) accepts (nil keeps all). It
// reports the upper bound of the bucket the quantile falls in, and 0 when
// nothing was observed.
func histogramQuantile(before, after *scrape, family string, q float64, keep func(map[string]string) bool) float64 {
	sum := func(s *scrape) map[float64]float64 {
		out := map[float64]float64{}
		fam := s.families[family]
		if fam == nil {
			return out
		}
		for _, smp := range fam.Samples {
			le, ok := smp.Labels["le"]
			if !ok || smp.Name != family+"_bucket" || (keep != nil && !keep(smp.Labels)) {
				continue
			}
			bound, err := strconv.ParseFloat(le, 64) // "+Inf" parses
			if err != nil {
				continue
			}
			out[bound] += smp.Value
		}
		return out
	}
	b, a := sum(before), sum(after)
	bounds := make([]float64, 0, len(a))
	for bound := range a {
		bounds = append(bounds, bound)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := a[bounds[len(bounds)-1]] - b[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	for _, bound := range bounds {
		if a[bound]-b[bound] >= q*total {
			return bound
		}
	}
	return bounds[len(bounds)-1]
}
