// Package harness is the experiment framework behind cmd/wdptbench and the
// root-level benchmarks: a registry of experiments — one per table or
// figure artifact of the paper — with parameter sweeps, timing, and aligned
// text-table rendering. EXPERIMENTS.md records the measured outputs next to
// the paper's claims.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"wdpt/internal/core"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/obs"
)

// Config tunes how heavy an experiment run is.
type Config struct {
	// Quick shrinks every sweep to smoke-test sizes (used by tests).
	Quick bool
	// Repetitions per measured point (default 3; the minimum is reported).
	Repetitions int
	// Warmup is the number of unmeasured runs before each measured point
	// (default 1), so caches and allocator pools reach steady state and the
	// reported shapes are not jitter artifacts. Negative disables warm-up.
	Warmup int
	// Stats, when non-nil, receives the work counters of every engine the
	// experiments obtain through Engine() — the per-experiment metrics
	// wdptbench emits into BENCH_*.json.
	Stats *obs.Stats
	// Parallelism bounds the worker goroutines the experiments pass to
	// Solve (and approx.Options). ≤ 1 keeps every run sequential; results
	// are byte-identical at any value (only timings and par.* counters
	// move), which the determinism suite pins.
	Parallelism int
	// BaseContext, when non-nil, is threaded into every Solve call the
	// experiments make, so the driver's cancellation (a Ctrl-C in
	// wdptbench) interrupts a sweep mid-experiment instead of after it.
	BaseContext context.Context
	// Timings, when non-nil, receives one TimingPoint per Measure call (in
	// call order): the min-of-N the tables print plus the p50/p95/p99 of
	// the measured repetitions. wdptbench wires one per experiment and
	// emits the log into BENCH_*.json, where scripts/benchdiff.sh reads it.
	Timings *TimingLog
}

// TimingPoint is the latency summary of one measured point: the robust
// minimum plus nearest-rank quantiles over the measured repetitions.
type TimingPoint struct {
	MinNS int64 `json:"min_ns"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
	Reps  int   `json:"reps"`
}

// TimingLog accumulates the TimingPoints of one experiment run in Measure
// call order. Experiments run their measured points sequentially, so no
// locking is needed.
type TimingLog struct {
	points []TimingPoint
}

// add summarizes one Measure call's repetition durations.
func (l *TimingLog) add(ds []time.Duration) {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	l.points = append(l.points, TimingPoint{
		MinNS: int64(sorted[0]),
		P50NS: int64(obs.QuantileSorted(sorted, 0.5)),
		P95NS: int64(obs.QuantileSorted(sorted, 0.95)),
		P99NS: int64(obs.QuantileSorted(sorted, 0.99)),
		Reps:  len(sorted),
	})
}

// Points returns the accumulated timing points in call order.
func (l *TimingLog) Points() []TimingPoint {
	if l == nil {
		return nil
	}
	return append([]TimingPoint(nil), l.points...)
}

// Context returns the run's base context, defaulting to Background when the
// driver did not provide one.
func (c Config) Context() context.Context {
	ctx := c.BaseContext
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

func (c Config) reps() int {
	if c.Repetitions <= 0 {
		return 3
	}
	return c.Repetitions
}

func (c Config) warmup() int {
	if c.Warmup < 0 {
		return 0
	}
	if c.Warmup == 0 {
		return 1
	}
	return c.Warmup
}

// Measure times fn at one measured point: Warmup unmeasured runs, then the
// minimum of Repetitions measured runs, via obs.Timer. When the config
// carries a TimingLog, the full repetition sample is summarized into it
// (min + p50/p95/p99) without changing the returned minimum.
func (c Config) Measure(fn func()) time.Duration {
	t := obs.Timer{Warmup: c.warmup(), Reps: c.reps()}
	if c.Timings == nil {
		return t.Measure(fn)
	}
	ds := t.MeasureAll(fn)
	c.Timings.add(ds)
	best := ds[0]
	for _, d := range ds[1:] {
		if d < best {
			best = d
		}
	}
	return best
}

// Engine returns the auto-selecting engine wired to the config's stats
// sink — the engine every experiment should use unless it is explicitly
// comparing engines.
func (c Config) Engine() cqeval.Engine {
	return cqeval.WithStats(cqeval.Auto(), c.Stats)
}

// solver is the evaluation entry point that pattern trees, unions and the
// Corollary 2/3 evaluators share.
type solver interface {
	Solve(context.Context, *db.Database, core.SolveOptions) (core.Result, error)
}

// solve runs s under the config's context with exactly opts. An unbudgeted
// call errs only when the driver cancels the run, which leaves the row short
// rather than wrong.
func (c Config) solve(s solver, d *db.Database, opts core.SolveOptions) core.Result {
	res, _ := s.Solve(c.Context(), d, opts)
	return res
}

// Table is a rendered experiment result: a titled grid of rows.
type Table struct {
	ID      string
	Title   string
	Paper   string // which table/figure of the paper this regenerates
	Columns []string
	Rows    [][]string
	Notes   []string
}

// noteError records err as an ERROR note, the way experiments flag a broken
// invariant, and reports whether there was one.
func (t *Table) noteError(err error) bool {
	if err == nil {
		return false
	}
	t.Notes = append(t.Notes, "ERROR: "+err.Error())
	return true
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = formatDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Render draws the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "reproduces: %s\n", t.Paper)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Run   func(Config) *Table
}

var registry = map[string]Experiment{}

// Register adds an experiment; duplicate IDs panic (programming error).
func Register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		//lint:ignore R2 init-time registration bug: failing fast at startup is the standard idiom
		panic("harness: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns the experiments sorted by id.
func All() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric-aware: E2 before E10.
		return expOrder(ids[i]) < expOrder(ids[j]) || (expOrder(ids[i]) == expOrder(ids[j]) && ids[i] < ids[j])
	})
	out := make([]Experiment, len(ids))
	for i, id := range ids {
		out[i] = registry[id]
	}
	return out
}

func expOrder(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// Measure runs fn reps times and returns the minimum wall-clock duration —
// the standard way to suppress scheduling noise in micro-measurements.
// Prefer Config.Measure, which adds warm-up; this remains for one-shot
// measurements whose *cold* cost is the artifact (e.g. approximation
// construction time in E10).
func Measure(reps int, fn func()) time.Duration {
	return obs.Timer{Reps: reps}.Measure(fn)
}

// CSV renders the table as comma-separated values (header + rows), for
// plotting the figure-shaped experiments outside the terminal. Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
