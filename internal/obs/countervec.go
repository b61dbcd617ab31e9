package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// CVec identifies one registered labeled counter family. Like counters and
// histograms, the numeric values are an internal detail; names (see String)
// are the stable identifiers used in the /metrics exposition and the
// glossary.
type CVec int

// The registered counter families. Every name listed here is documented in
// docs/OBSERVABILITY.md (enforced by wdptlint rule R14).
const (
	// CVecClientEndpointAttempts counts the coordinator's exchanges with
	// each member (proxy forwards, scatter legs and health probes),
	// labeled by target endpoint.
	CVecClientEndpointAttempts CVec = iota
	// CVecClientEndpointFailures counts exchanges that ended in a transport
	// error, a 429 or a 5xx status, labeled by target endpoint.
	CVecClientEndpointFailures

	numCVecs // sentinel; keep last
)

// counterVecNames maps counter families to their stable names. wdptlint rule
// R14 checks that every name is snake-case, unique, and documented in
// docs/OBSERVABILITY.md.
var counterVecNames = [numCVecs]string{
	CVecClientEndpointAttempts: "wdptd_client_endpoint_attempts",
	CVecClientEndpointFailures: "wdptd_client_endpoint_failures",
}

// String returns the counter family's stable name.
func (c CVec) String() string {
	if c < 0 || c >= numCVecs {
		return fmt.Sprintf("obs_unknown_countervec_%d", int(c))
	}
	return counterVecNames[c]
}

// CounterVec is a labeled family of monotonic counters sharing one
// registered identity — the shape behind
// wdptd_client_endpoint_attempts{endpoint}. It follows the HistVec
// discipline: lookup takes a read lock, the counter cell is atomic, and a
// nil *CounterVec is the disabled state (every method is a single branch).
type CounterVec struct {
	cvec   CVec
	labels []string

	mu sync.RWMutex
	m  map[string]*atomic.Int64
}

// NewCounterVec builds a labeled counter family.
func NewCounterVec(c CVec, labelNames ...string) *CounterVec {
	return &CounterVec{
		cvec:   c,
		labels: append([]string(nil), labelNames...),
		m:      make(map[string]*atomic.Int64),
	}
}

// cell returns the counter cell for the given label values, creating it on
// first use. Returns nil on a nil receiver or a label-arity mismatch.
func (v *CounterVec) cell(values []string) *atomic.Int64 {
	if v == nil || len(values) != len(v.labels) {
		return nil
	}
	key := strings.Join(values, vecKeySep)
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[key]; c == nil {
		c = new(atomic.Int64)
		v.m[key] = c
	}
	return c
}

// Inc increments the series for the given label values by one. No-op on nil
// or a label-arity mismatch.
func (v *CounterVec) Inc(values ...string) {
	if c := v.cell(values); c != nil {
		c.Add(1)
	}
}

// Add increments the series for the given label values by n. No-op on nil,
// n == 0, or a label-arity mismatch.
func (v *CounterVec) Add(n int64, values ...string) {
	if n == 0 {
		return
	}
	if c := v.cell(values); c != nil {
		c.Add(n)
	}
}

// Get returns the current value of the series for the given label values;
// 0 on nil, an unseen series, or a label-arity mismatch.
func (v *CounterVec) Get(values ...string) int64 {
	if v == nil || len(values) != len(v.labels) {
		return 0
	}
	key := strings.Join(values, vecKeySep)
	v.mu.RLock()
	defer v.mu.RUnlock()
	if c := v.m[key]; c != nil {
		return c.Load()
	}
	return 0
}

// Name returns the family's registered metric name.
func (v *CounterVec) Name() string { return v.cvec.String() }

// LabelNames returns the family's label names in declaration order.
func (v *CounterVec) LabelNames() []string { return append([]string(nil), v.labels...) }

// LabeledCount is one series of a CounterVec: its label values (in
// LabelNames order) and the current count.
type LabeledCount struct {
	// Values are the label values, aligned with LabelNames.
	Values []string
	// Count is the series' current value.
	Count int64
}

// Series snapshots every series in the family, sorted by label values — the
// deterministic order the Prometheus exposition relies on. Empty on a nil
// receiver.
func (v *CounterVec) Series() []LabeledCount {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	cells := make(map[string]*atomic.Int64, len(v.m))
	for k, c := range v.m {
		cells[k] = c
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	out := make([]LabeledCount, 0, len(keys))
	for _, k := range keys {
		values := strings.Split(k, vecKeySep)
		if len(v.labels) == 0 {
			values = nil
		}
		out = append(out, LabeledCount{Values: values, Count: cells[k].Load()})
	}
	return out
}
