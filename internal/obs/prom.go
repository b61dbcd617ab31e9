package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format version 0.0.4 served at GET /metrics.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// runtimeMetricNames registers the Go runtime metrics sampled on scrape.
// TestMetricNamesDocumented holds these to the same snake-case / uniqueness /
// glossary discipline as the counter, histogram, and gauge registries;
// WriteRuntimeMetrics indexes into this literal so the exposition cannot
// drift from the registry.
var runtimeMetricNames = []string{
	"go_goroutines",
	"go_heap_alloc_bytes",
	"go_heap_objects",
	"go_gc_cycles_total",
	"go_gc_pause_seconds_total",
}

// RuntimeMetricNames returns the registered runtime metric names (copy).
func RuntimeMetricNames() []string {
	return append([]string(nil), runtimeMetricNames...)
}

// Label is one name="value" pair on an exposition sample.
type Label struct {
	// Name is the label name.
	Name string
	// Value is the label value (escaped on write).
	Value string
}

// Exposition accumulates metrics in Prometheus text exposition format
// 0.0.4. It is hand-rolled on the standard library: every emitter writes
// the # HELP / # TYPE header followed by its samples, and callers control
// ordering by calling the emitters in a fixed sequence (series within one
// family are sorted by the callers' snapshot functions), so the output is
// byte-deterministic for a given metric state.
type Exposition struct {
	b strings.Builder
}

// String returns the accumulated exposition text.
func (e *Exposition) String() string { return e.b.String() }

// header writes the # HELP and # TYPE lines for one metric family.
func (e *Exposition) header(name, help, typ string) {
	e.b.WriteString("# HELP ")
	e.b.WriteString(name)
	e.b.WriteByte(' ')
	e.b.WriteString(escapeHelp(help))
	e.b.WriteString("\n# TYPE ")
	e.b.WriteString(name)
	e.b.WriteByte(' ')
	e.b.WriteString(typ)
	e.b.WriteByte('\n')
}

// sample writes one "name{labels} value" line.
func (e *Exposition) sample(name string, labels []Label, value string) {
	e.b.WriteString(name)
	if len(labels) > 0 {
		e.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				e.b.WriteByte(',')
			}
			e.b.WriteString(l.Name)
			e.b.WriteString(`="`)
			e.b.WriteString(escapeLabel(l.Value))
			e.b.WriteByte('"')
		}
		e.b.WriteByte('}')
	}
	e.b.WriteByte(' ')
	e.b.WriteString(value)
	e.b.WriteByte('\n')
}

// CounterInt emits one unlabeled counter family with an integer value.
func (e *Exposition) CounterInt(name, help string, value int64) {
	e.header(name, help, "counter")
	e.sample(name, nil, strconv.FormatInt(value, 10))
}

// GaugeInt emits one unlabeled gauge family with an integer value.
func (e *Exposition) GaugeInt(name, help string, value int64) {
	e.header(name, help, "gauge")
	e.sample(name, nil, strconv.FormatInt(value, 10))
}

// Gauge emits one registered gauge with an integer value.
func (e *Exposition) Gauge(g Gauge, help string, value int64) {
	e.GaugeInt(g.String(), help, value)
}

// Histogram emits one registered histogram family: for every labeled
// series (already sorted by the Series snapshot), the cumulative le
// buckets including +Inf, then _sum (seconds) and _count. labelNames must
// align with each series' Values.
func (e *Exposition) Histogram(h Hist, help string, labelNames []string, series []LabeledHistogram) {
	name := h.String()
	e.header(name, help, "histogram")
	for _, s := range series {
		base := make([]Label, 0, len(labelNames)+1)
		for i, ln := range labelNames {
			v := ""
			if i < len(s.Values) {
				v = s.Values[i]
			}
			base = append(base, Label{Name: ln, Value: v})
		}
		var cum int64
		for i, bound := range s.Snap.Bounds {
			cum += s.Snap.Counts[i]
			labels := append(append([]Label(nil), base...), Label{Name: "le", Value: formatFloat(bound.Seconds())})
			e.sample(name+"_bucket", labels, strconv.FormatInt(cum, 10))
		}
		labels := append(append([]Label(nil), base...), Label{Name: "le", Value: "+Inf"})
		e.sample(name+"_bucket", labels, strconv.FormatInt(s.Snap.Count, 10))
		e.sample(name+"_sum", base, formatFloat(s.Snap.Sum.Seconds()))
		e.sample(name+"_count", base, strconv.FormatInt(s.Snap.Count, 10))
	}
}

// HistogramVec emits a labeled family from its live HistVec.
func (e *Exposition) HistogramVec(v *HistVec, help string) {
	if v == nil {
		return
	}
	e.Histogram(v.hist, help, v.labels, v.Series())
}

// CounterVec emits one registered labeled counter family as
// <name>_total{labels}, series sorted by label values (the Series snapshot
// order). A nil or empty family still emits its header, so the family set
// is stable across scrapes.
func (e *Exposition) CounterVec(v *CounterVec, help string) {
	if v == nil {
		return
	}
	name := v.Name() + "_total"
	e.header(name, help, "counter")
	for _, s := range v.Series() {
		labels := make([]Label, 0, len(v.labels))
		for i, ln := range v.labels {
			val := ""
			if i < len(s.Values) {
				val = s.Values[i]
			}
			labels = append(labels, Label{Name: ln, Value: val})
		}
		e.sample(name, labels, strconv.FormatInt(s.Count, 10))
	}
}

// WriteCounters emits every registered counter of st (zeros included, so
// the sample set is stable across scrapes) as
// wdpt_<name with dots replaced>_total, in registry declaration order.
func (e *Exposition) WriteCounters(st *Stats) {
	for _, c := range Counters() {
		name := "wdpt_" + strings.ReplaceAll(c.String(), ".", "_") + "_total"
		e.CounterInt(name, "Engine work counter "+c.String()+" (see docs/OBSERVABILITY.md).", st.Get(c))
	}
}

// WriteRuntimeMetrics samples the Go runtime at scrape time: goroutines,
// heap occupancy, and cumulative GC cycles and pause time.
func (e *Exposition) WriteRuntimeMetrics() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.GaugeInt(runtimeMetricNames[0], "Number of live goroutines.", int64(runtime.NumGoroutine()))
	e.GaugeInt(runtimeMetricNames[1], "Bytes of allocated heap objects.", int64(ms.HeapAlloc))
	e.GaugeInt(runtimeMetricNames[2], "Number of allocated heap objects.", int64(ms.HeapObjects))
	e.header(runtimeMetricNames[3], "Completed GC cycles.", "counter")
	e.sample(runtimeMetricNames[3], nil, strconv.FormatUint(uint64(ms.NumGC), 10))
	e.header(runtimeMetricNames[4], "Cumulative GC stop-the-world pause time in seconds.", "counter")
	e.sample(runtimeMetricNames[4], nil, formatFloat(float64(ms.PauseTotalNs)/1e9))
}

// formatFloat renders a float the shortest way that round-trips, matching
// the exposition-format convention.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// PromSample is one parsed exposition sample line.
type PromSample struct {
	// Name is the sample name (including _bucket/_sum/_count suffixes).
	Name string
	// Labels are the parsed label pairs.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	// Name is the family name from the # TYPE line.
	Name string
	// Type is counter, gauge, histogram, summary, or untyped.
	Type string
	// Samples are the family's samples in exposition order.
	Samples []PromSample
}

// ParsePromText parses Prometheus text exposition format 0.0.4 into
// families keyed by family name — the minimal reader behind the wdptd
// selfcheck and the exposition tests. It rejects lines it cannot parse, so
// "parses cleanly" is a meaningful health assertion.
func ParsePromText(text string) (map[string]*PromFamily, error) {
	fams := make(map[string]*PromFamily)
	family := func(name string) *PromFamily {
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.Type == "histogram" {
					base = trimmed
				}
				break
			}
		}
		f := fams[base]
		if f == nil {
			f = &PromFamily{Name: base, Type: "untyped"}
			fams[base] = f
		}
		return f
	}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				f := family(fields[2])
				f.Name = fields[2]
				f.Type = fields[3]
				fams[fields[2]] = f
			} else if len(fields) >= 3 && fields[1] == "HELP" {
				family(fields[2])
			} else {
				return nil, fmt.Errorf("obs: exposition line %d: unrecognized comment %q", i+1, line)
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", i+1, err)
		}
		f := family(s.Name)
		f.Samples = append(f.Samples, s)
	}
	return fams, nil
}

// parsePromSample parses one "name{labels} value" line.
func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:nameEnd]
	rest := line[nameEnd:]
	if rest[0] == '{' {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parsePromLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parsePromLabels parses `a="x",b="y"`.
func parsePromLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed labels %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		var val strings.Builder
		j := eq + 2
		for ; j < len(s); j++ {
			if s[j] == '\\' && j+1 < len(s) {
				switch s[j+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[j+1])
				}
				j++
				continue
			}
			if s[j] == '"' {
				break
			}
			val.WriteByte(s[j])
		}
		if j >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[name] = val.String()
		s = strings.TrimPrefix(strings.TrimSpace(s[j+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// CheckHistograms validates every histogram family in a parsed exposition:
// for each label series, the le bounds must be ascending, the bucket
// counts cumulative (monotone non-decreasing), and the +Inf bucket equal
// to the series' _count sample — the sanity contract the wdptd selfcheck
// asserts against a live /metrics.
func CheckHistograms(fams map[string]*PromFamily) error {
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.Type != "histogram" {
			continue
		}
		type seriesState struct {
			lastLE  float64
			lastCum float64
			inf     float64
			hasInf  bool
			count   float64
			hasCnt  bool
		}
		series := map[string]*seriesState{}
		var order []string
		get := func(labels map[string]string) *seriesState {
			keys := make([]string, 0, len(labels))
			for k := range labels {
				if k != "le" {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			var b strings.Builder
			for _, k := range keys {
				b.WriteString(k)
				b.WriteByte('=')
				b.WriteString(labels[k])
				b.WriteByte(';')
			}
			key := b.String()
			st := series[key]
			if st == nil {
				st = &seriesState{lastLE: -1}
				series[key] = st
				order = append(order, key)
			}
			return st
		}
		for _, s := range f.Samples {
			st := get(s.Labels)
			switch {
			case s.Name == name+"_bucket":
				le := s.Labels["le"]
				if le == "+Inf" {
					st.inf, st.hasInf = s.Value, true
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						return fmt.Errorf("obs: histogram %s: bad le %q: %w", name, le, err)
					}
					if bound <= st.lastLE {
						return fmt.Errorf("obs: histogram %s: le bounds not ascending (%g after %g)", name, bound, st.lastLE)
					}
					st.lastLE = bound
				}
				if s.Value < st.lastCum {
					return fmt.Errorf("obs: histogram %s: bucket counts not cumulative (%g after %g)", name, s.Value, st.lastCum)
				}
				st.lastCum = s.Value
			case s.Name == name+"_count":
				st.count, st.hasCnt = s.Value, true
			}
		}
		for _, key := range order {
			st := series[key]
			if st.hasInf && st.hasCnt && st.inf != st.count {
				return fmt.Errorf("obs: histogram %s{%s}: +Inf bucket %g != count %g", name, key, st.inf, st.count)
			}
		}
	}
	return nil
}
