package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// TraceSink receives span events. Implementations must be safe for
// concurrent use. Sinks are injected — the library never writes trace
// output to process streams on its own.
type TraceSink interface {
	// SpanDone reports one finished span: its name, nesting depth at start,
	// and wall-clock duration.
	SpanDone(name string, depth int, d time.Duration)
}

// WithTrace attaches a trace sink to the Stats. It returns s so the call
// chains; on a nil receiver it is a no-op returning nil (tracing stays
// disabled along with the counters).
func (s *Stats) WithTrace(sink TraceSink) *Stats {
	if s == nil {
		return nil
	}
	s.sink = sink
	return s
}

// Span is an in-flight traced region. The zero Span is the disabled state:
// End on it is a single nil check.
type Span struct {
	s     *Stats
	name  string
	depth int
	start time.Time
}

// StartSpan opens a span named name. When s is nil or has no trace sink
// attached, the returned Span is inert and End is free — this is the
// fast path that keeps tracing near-zero-cost when disabled.
func (s *Stats) StartSpan(name string) Span {
	if s == nil || s.sink == nil {
		return Span{}
	}
	return Span{s: s, name: name, start: time.Now()}
}

// Child opens a nested span one level deeper than sp. Inert when sp is.
func (sp Span) Child(name string) Span {
	if sp.s == nil {
		return Span{}
	}
	return Span{s: sp.s, name: name, depth: sp.depth + 1, start: time.Now()}
}

// End closes the span and reports it to the sink. Safe on the zero Span.
func (sp Span) End() {
	if sp.s == nil {
		return
	}
	sp.s.sink.SpanDone(sp.name, sp.depth, time.Since(sp.start))
}

// SpanRecord is one finished span as retained by Collector.
type SpanRecord struct {
	Name     string        `json:"name"`
	Depth    int           `json:"depth"`
	Duration time.Duration `json:"duration_ns"`
}

// Collector is a TraceSink that retains finished spans in completion order
// for later inspection (tests, -json output). Safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// SpanDone implements TraceSink.
func (c *Collector) SpanDone(name string, depth int, d time.Duration) {
	c.mu.Lock()
	c.spans = append(c.spans, SpanRecord{Name: name, Depth: depth, Duration: d})
	c.mu.Unlock()
}

// Spans returns a copy of the collected spans in completion order.
func (c *Collector) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRecord, len(c.spans))
	copy(out, c.spans)
	return out
}

// SpanNode is one node of a reconstructed span tree — the JSON shape
// served under "trace" in /v1/query responses and wdpteval -json output.
type SpanNode struct {
	// Name is the span name.
	Name string `json:"name"`
	// DurationNS is the span's wall-clock duration in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Children are the nested spans, in completion order.
	Children []SpanNode `json:"children,omitempty"`
}

// BuildSpanTree reconstructs the span tree from Collector output. Spans
// arrive in completion order with the nesting depth they started at, so a
// span completing at depth d adopts every not-yet-adopted span at depth
// d+1 as its children. Spans whose parent never ended surface as extra
// roots rather than being dropped.
func BuildSpanTree(records []SpanRecord) []SpanNode {
	pending := map[int][]SpanNode{}
	maxDepth := 0
	for _, r := range records {
		if r.Depth > maxDepth {
			maxDepth = r.Depth
		}
		node := SpanNode{Name: r.Name, DurationNS: int64(r.Duration)}
		node.Children = pending[r.Depth+1]
		delete(pending, r.Depth+1)
		pending[r.Depth] = append(pending[r.Depth], node)
	}
	roots := pending[0]
	for d := 1; d <= maxDepth; d++ {
		roots = append(roots, pending[d]...)
	}
	return roots
}

// FormatSpanTree renders a span tree as indented text, one span per line
// with its duration — the human-readable form behind wdpteval -trace and
// the slow-query log.
func FormatSpanTree(nodes []SpanNode) string {
	var b strings.Builder
	var walk func(nodes []SpanNode, depth int)
	walk = func(nodes []SpanNode, depth int) {
		for _, n := range nodes {
			fmt.Fprintf(&b, "%*s%s %s\n", 2*depth, "", n.Name, time.Duration(n.DurationNS))
			walk(n.Children, depth+1)
		}
	}
	walk(nodes, 0)
	return b.String()
}

// WriterSink is a TraceSink that streams one indented line per finished
// span to an injected writer (the sink behind a future wdpteval -trace-log
// mode; CLIs pass their own stderr). Safe for concurrent use.
type WriterSink struct {
	mu sync.Mutex
	W  io.Writer
}

// SpanDone implements TraceSink.
func (w *WriterSink) SpanDone(name string, depth int, d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// trace output is best-effort; a failed write must not abort evaluation
	fmt.Fprintf(w.W, "%*s%s %s\n", 2*depth, "", name, d)
}
