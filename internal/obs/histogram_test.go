package obs

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	bounds := []time.Duration{10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond}
	h := NewHistogram(bounds)
	h.Observe(time.Microsecond)        // bucket 0
	h.Observe(10 * time.Microsecond)   // bucket 0 (le is inclusive)
	h.Observe(11 * time.Microsecond)   // bucket 1
	h.Observe(time.Millisecond)        // bucket 2
	h.Observe(5 * time.Millisecond)    // overflow
	h.Observe(1000 * time.Millisecond) // overflow
	snap := h.Snapshot()
	want := []int64{2, 1, 1, 2}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 6 || h.Count() != 6 {
		t.Fatalf("Count = %d / %d, want 6", snap.Count, h.Count())
	}
	wantSum := time.Microsecond + 10*time.Microsecond + 11*time.Microsecond +
		time.Millisecond + 5*time.Millisecond + 1000*time.Millisecond
	if h.Sum() != wantSum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramNilAndDefaults(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	if snap := h.Snapshot(); snap.Count != 0 || len(snap.Bounds) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	// Empty and unsorted bounds fall back to the default buckets.
	for _, bad := range [][]time.Duration{nil, {time.Second, time.Millisecond}} {
		got := NewHistogram(bad)
		if len(got.bounds) != len(LatencyBuckets()) {
			t.Fatalf("bad bounds %v: got %d buckets, want default %d", bad, len(got.bounds), len(LatencyBuckets()))
		}
	}
}

// TestHistogramConcurrency pins the lock-free contract: N concurrent
// writers, every observation lands in exactly one bucket, the total count
// is exact. Run under -race by scripts/check.sh and CI.
func TestHistogramConcurrency(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(10 * time.Second))))
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want exactly %d", got, writers*perWriter)
	}
	snap := h.Snapshot()
	var sum int64
	for _, c := range snap.Counts {
		sum += c
	}
	if sum != writers*perWriter {
		t.Fatalf("bucket sum = %d, want %d", sum, writers*perWriter)
	}
}

// TestQuantileAccuracy bounds the bucket estimator against the exact
// sorted-sample reference: the estimate must lie within the bucket that
// holds the true rank-q observation.
func TestQuantileAccuracy(t *testing.T) {
	bounds := LatencyBuckets()
	h := NewHistogram(bounds)
	rng := rand.New(rand.NewSource(42))
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over the bucketed range so every decade is exercised.
		exp := 4 + rng.Float64()*6 // 1e4 .. 1e10 ns
		d := time.Duration(pow10(exp))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := QuantileSorted(samples, q)
		est := h.Quantile(q)
		lo, hi := bucketRange(bounds, exact)
		if est < lo || est > hi {
			t.Fatalf("q=%v: estimate %v outside bucket [%v, %v] of exact %v", q, est, lo, hi, exact)
		}
	}
}

// pow10 computes 10^exp without importing math for one call site.
func pow10(exp float64) float64 {
	out := 1.0
	for exp >= 1 {
		out *= 10
		exp--
	}
	// Linear remainder is close enough for generating test samples.
	return out * (1 + exp*9)
}

// bucketRange returns the [lower, upper] bounds of the bucket holding d.
func bucketRange(bounds []time.Duration, d time.Duration) (time.Duration, time.Duration) {
	for i, b := range bounds {
		if d <= b {
			lo := time.Duration(0)
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo, b
		}
	}
	return bounds[len(bounds)-1], 1 << 62
}

func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 2 * time.Millisecond})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	h.Observe(10 * time.Millisecond) // overflow only
	if got := h.Quantile(0.5); got != 2*time.Millisecond {
		t.Fatalf("overflow quantile = %v, want last finite bound 2ms", got)
	}
}

func TestQuantileSorted(t *testing.T) {
	s := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want time.Duration
	}{{0.5, 5}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {1, 10}, {0, 1}}
	for _, c := range cases {
		if got := QuantileSorted(s, c.q); got != c.want {
			t.Fatalf("QuantileSorted(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if QuantileSorted(nil, 0.5) != 0 {
		t.Fatal("empty sample must yield 0")
	}
}

func TestHistVec(t *testing.T) {
	v := NewHistVec(HistQueryDuration, nil, "dataset", "mode", "outcome")
	v.With("music", "exact", "ok").Observe(time.Millisecond)
	v.With("music", "exact", "ok").Observe(2 * time.Millisecond)
	v.With("chain", "maximal", "degraded").Observe(time.Second)
	if v.With("music", "exact", "ok").Count() != 2 {
		t.Fatal("series must accumulate across With calls")
	}
	if v.With("wrong-arity") != nil {
		t.Fatal("arity mismatch must return the nil (disabled) histogram")
	}
	series := v.Series()
	if len(series) != 2 {
		t.Fatalf("Series len = %d, want 2", len(series))
	}
	// Sorted by label values: chain < music.
	if series[0].Values[0] != "chain" || series[1].Values[0] != "music" {
		t.Fatalf("Series order: %v then %v", series[0].Values, series[1].Values)
	}
	var nilVec *HistVec
	if nilVec.With("a") != nil || nilVec.Series() != nil {
		t.Fatal("nil HistVec must be fully disabled")
	}
	if v.Name() != "wdptd_query_duration_seconds" {
		t.Fatalf("Name = %q", v.Name())
	}
	if got := v.LabelNames(); strings.Join(got, ",") != "dataset,mode,outcome" {
		t.Fatalf("LabelNames = %v", got)
	}
}

func TestHistVecConcurrency(t *testing.T) {
	v := NewHistVec(HistQueryDuration, nil, "mode")
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mode := fmt.Sprintf("mode%d", id%3)
			for i := 0; i < perWriter; i++ {
				v.With(mode).Observe(time.Duration(i))
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, s := range v.Series() {
		total += s.Snap.Count
	}
	if total != writers*perWriter {
		t.Fatalf("total = %d, want %d", total, writers*perWriter)
	}
}

func TestMetricNameRegistries(t *testing.T) {
	if HistQueryDuration.String() != "wdptd_query_duration_seconds" {
		t.Fatalf("HistQueryDuration = %q", HistQueryDuration)
	}
	if Hist(99).String() != "obs_unknown_histogram_99" || Gauge(-1).String() != "obs_unknown_gauge_-1" {
		t.Fatal("out-of-range metric ids must have fallback names")
	}
}

// metricSegment is the shape of every dot-separated segment of a registered
// name, so exposition mangling ("." -> "_") can never produce an invalid or
// colliding Prometheus name.
var metricSegment = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestMetricNamesDocumented holds every registered name — engine counters,
// histograms, gauges, counter families and runtime gauges — to three rules:
// each segment is snake_case, no name is registered twice across the
// registries, and each name has a row in the docs/OBSERVABILITY.md glossary
// that -stats output, BENCH artifacts and /metrics scrapes are read by.
func TestMetricNamesDocumented(t *testing.T) {
	data, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	glossary := string(data)
	registries := []struct {
		name  string
		names []string
	}{
		{"counterNames", counterNames[:]},
		{"histNames", histNames[:]},
		{"gaugeNames", gaugeNames[:]},
		{"counterVecNames", counterVecNames[:]},
		{"runtimeMetricNames", runtimeMetricNames},
	}
	firstSeen := make(map[string]string)
	for _, reg := range registries {
		for _, name := range reg.names {
			for _, seg := range strings.Split(name, ".") {
				if !metricSegment.MatchString(seg) {
					t.Errorf("%s: %q: segment %q does not match %s", reg.name, name, seg, metricSegment)
				}
			}
			if prev, dup := firstSeen[name]; dup {
				t.Errorf("%s: %q is already registered in %s", reg.name, name, prev)
			}
			firstSeen[name] = reg.name
			if !strings.Contains(glossary, "`"+name+"`") {
				t.Errorf("%s: %q has no glossary entry in docs/OBSERVABILITY.md", reg.name, name)
			}
		}
	}
}
