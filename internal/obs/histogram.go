package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Hist identifies one registered latency histogram. Like counters, the
// numeric values are an internal detail; names (see String) are the stable
// identifiers used in the /metrics exposition and the glossary.
type Hist int

// The registered histograms. Every name listed here is documented in
// docs/OBSERVABILITY.md (enforced by TestMetricNamesDocumented).
const (
	// HistQueryDuration is the per-request wall time of /v1/query, labeled
	// by dataset, mode, and outcome (ok / degraded / each trip type).
	HistQueryDuration Hist = iota
	// HistAdmissionWait is the time a request spent queued in admission
	// control before its parallelism weight was granted.
	HistAdmissionWait
	// HistCacheLookup is the result-cache lookup latency (hits and misses).
	HistCacheLookup
	// HistClusterPeerLatency is the coordinator-observed wall time of one
	// peer exchange (health probe, proxied query, or scatter leg), labeled
	// by peer endpoint and outcome.
	HistClusterPeerLatency

	numHists // sentinel; keep last
)

// histNames maps histograms to their stable names. TestMetricNamesDocumented
// checks that every name is snake-case, unique, and documented in
// docs/OBSERVABILITY.md.
var histNames = [numHists]string{
	HistQueryDuration:      "wdptd_query_duration_seconds",
	HistAdmissionWait:      "wdptd_admission_wait_seconds",
	HistCacheLookup:        "wdptd_cache_lookup_seconds",
	HistClusterPeerLatency: "wdptd_cluster_peer_latency_seconds",
}

// String returns the histogram's stable name.
func (h Hist) String() string {
	if h < 0 || h >= numHists {
		return fmt.Sprintf("obs_unknown_histogram_%d", int(h))
	}
	return histNames[h]
}

// Gauge identifies one registered gauge: a point-in-time level sampled on
// scrape rather than a monotonic counter.
type Gauge int

// The registered gauges. Every name listed here is documented in
// docs/OBSERVABILITY.md (enforced by TestMetricNamesDocumented).
const (
	// GaugeInFlight is the admission weight currently held by evaluating
	// queries.
	GaugeInFlight Gauge = iota
	// GaugeQueueDepth is the admission wait-queue depth.
	GaugeQueueDepth
	// GaugeCacheEntries is the result-cache occupancy in entries.
	GaugeCacheEntries

	numGauges // sentinel; keep last
)

// gaugeNames maps gauges to their stable names (TestMetricNamesDocumented).
var gaugeNames = [numGauges]string{
	GaugeInFlight:     "wdptd_inflight_queries",
	GaugeQueueDepth:   "wdptd_admission_queue_depth",
	GaugeCacheEntries: "wdptd_result_cache_entries",
}

// String returns the gauge's stable name.
func (g Gauge) String() string {
	if g < 0 || g >= numGauges {
		return fmt.Sprintf("obs_unknown_gauge_%d", int(g))
	}
	return gaugeNames[g]
}

// LatencyBuckets returns the default log-spaced latency bucket boundaries:
// 24 upper bounds doubling from 10µs to ~84s. Doubling bounds keep the
// relative quantile-estimation error bounded by the bucket ratio (a factor
// of 2) across six decades of latency, which is the resolution the paper's
// tractable-vs-intractable gradient actually spans.
func LatencyBuckets() []time.Duration {
	out := make([]time.Duration, 24)
	d := 10 * time.Microsecond
	for i := range out {
		out[i] = d
		d *= 2
	}
	return out
}

// Histogram is a lock-free fixed-bucket latency histogram: log-spaced upper
// bounds fixed at construction, one atomic count per bucket (plus an
// overflow bucket), and an atomic sum of observed durations. Observe is the
// hot path and follows the same nil discipline as the counters: a nil
// *Histogram is the disabled state and Observe on it is a single branch
// (pinned by BenchmarkObsDisabled).
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; the last bucket is +Inf overflow
	sum    atomic.Int64   // total observed nanoseconds
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (copied). Empty or unsorted bounds fall back to LatencyBuckets.
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 || !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		bounds = LatencyBuckets()
	}
	h := &Histogram{bounds: append([]time.Duration(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe records one duration: a binary search over the fixed bounds and
// two atomic adds. No-op on nil.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed durations; 0 on nil.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the finite upper bounds, ascending.
	Bounds []time.Duration
	// Counts are the per-bucket (non-cumulative) observation counts;
	// len(Counts) == len(Bounds)+1 and the last entry is the overflow
	// bucket.
	Counts []int64
	// Count is the total number of observations.
	Count int64
	// Sum is the sum of all observed durations.
	Sum time.Duration
}

// Snapshot copies the histogram's current state. A nil histogram yields a
// zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Bounds: append([]time.Duration(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		snap.Counts[i] = h.counts[i].Load()
		snap.Count += snap.Counts[i]
	}
	return snap
}

// HistVec is a labeled family of histograms sharing one registered identity
// and one set of bucket bounds — the shape behind
// wdptd_query_duration_seconds{dataset,mode,outcome}. Lookup takes a read
// lock; the returned *Histogram records lock-free. A nil *HistVec is the
// disabled state: With returns nil and the nil Histogram discipline takes
// over.
type HistVec struct {
	hist   Hist
	labels []string
	bounds []time.Duration

	mu sync.RWMutex
	m  map[string]*Histogram
}

// NewHistVec builds a labeled histogram family. Bounds follow the
// NewHistogram defaulting rule.
func NewHistVec(h Hist, bounds []time.Duration, labelNames ...string) *HistVec {
	return &HistVec{
		hist:   h,
		labels: append([]string(nil), labelNames...),
		bounds: bounds,
		m:      make(map[string]*Histogram),
	}
}

// vecKeySep joins label values into map keys; 0xff cannot appear in valid
// UTF-8 label values, so the join is unambiguous.
const vecKeySep = "\xff"

// With returns the histogram for the given label values, creating it on
// first use. Returns nil (the disabled histogram) on a nil receiver or a
// label-arity mismatch.
func (v *HistVec) With(values ...string) *Histogram {
	if v == nil || len(values) != len(v.labels) {
		return nil
	}
	key := strings.Join(values, vecKeySep)
	v.mu.RLock()
	h := v.m[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.m[key]; h == nil {
		h = NewHistogram(v.bounds)
		v.m[key] = h
	}
	return h
}

// Name returns the family's registered metric name.
func (v *HistVec) Name() string { return v.hist.String() }

// LabelNames returns the family's label names in declaration order.
func (v *HistVec) LabelNames() []string { return append([]string(nil), v.labels...) }

// LabeledHistogram is one series of a HistVec: its label values (in
// LabelNames order) and the histogram snapshot.
type LabeledHistogram struct {
	// Values are the label values, aligned with LabelNames.
	Values []string
	// Snap is the series' histogram state.
	Snap HistogramSnapshot
}

// Series snapshots every series in the family, sorted by label values —
// the deterministic order the Prometheus exposition relies on. Empty on a
// nil receiver.
func (v *HistVec) Series() []LabeledHistogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	hists := make(map[string]*Histogram, len(v.m))
	for k, h := range v.m {
		hists[k] = h
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	out := make([]LabeledHistogram, 0, len(keys))
	for _, k := range keys {
		values := strings.Split(k, vecKeySep)
		if len(v.labels) == 0 {
			values = nil
		}
		out = append(out, LabeledHistogram{Values: values, Snap: hists[k].Snapshot()})
	}
	return out
}

// QuantileSorted returns the exact nearest-rank q-quantile (0 < q ≤ 1) of
// an ascending-sorted sample — the reference estimator histogram accuracy
// is tested against, and the per-point p50/p95/p99 recorded in BENCH_*.json
// artifacts. Returns 0 on an empty sample.
func QuantileSorted(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q > 1 {
		q = 1
	}
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
