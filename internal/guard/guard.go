// Package guard is the resource-governance layer of the evaluation stack:
// budgets charged at the hot loops of internal/cqeval and internal/core, a
// typed error taxonomy carrying partial-progress stats, panic-to-error
// recovery at the public Solve boundaries, and a deterministic
// fault-injection harness for chaos testing.
//
// The design follows the paper's own degradation story: exact WDPT
// evaluation is intractable even under global tractability (Proposition 3),
// while partial and maximal evaluation stay in LOGCFL (Theorems 8-9) — so
// when a budget trips, the caller can retry under the cheaper semantics
// instead of failing outright (core.SolveOptions.Fallback drives that
// ladder; see docs/ROBUSTNESS.md).
//
// Mechanics: a *Meter is threaded through the evaluation layers; charging
// past the budget panics a *TripError, which the Solve boundary recovers
// into an ordinary error. The panic is the abort mechanism, not an API —
// no *TripError panic ever escapes a public entry point. A nil *Meter is
// the disabled state, and every method is safe on the nil receiver, so the
// unbudgeted hot paths stay branch-predictable and counter-silent.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"wdpt/internal/obs"
)

// The error taxonomy. All of these are reachable with errors.Is through the
// *TripError returned from a tripped or recovered Solve call.
var (
	// ErrDeadline reports that the wall-clock budget (Budget.Wall) or the
	// context deadline was exceeded.
	ErrDeadline = errors.New("guard: wall-clock budget exceeded")
	// ErrTupleBudget reports that more intermediate tuples were materialized
	// than Budget.MaxTuples allows.
	ErrTupleBudget = errors.New("guard: intermediate-tuple budget exceeded")
	// ErrAnswerLimit reports that the enumeration reached Budget.MaxAnswers
	// and was truncated.
	ErrAnswerLimit = errors.New("guard: answer limit reached")
	// ErrInjected reports a fault raised by the active Injector.
	ErrInjected = errors.New("guard: injected fault")
	// ErrPanic reports a panic recovered at a Solve boundary.
	ErrPanic = errors.New("guard: recovered panic")
)

// Budget bounds one evaluation attempt. The zero value imposes no limits.
// Each limit is independent; zero disables that limit.
type Budget struct {
	// Wall is the wall-clock allowance per attempt, checked at meter
	// checkpoints (every join wave, semijoin pass, and root-candidate
	// expansion) and every 256 tuple charges.
	Wall time.Duration
	// MaxTuples caps the intermediate tuples materialized: bag-relation
	// rows, join and domain-product rows, and enumerated homomorphisms.
	MaxTuples int64
	// MaxAnswers caps the answers collected by the enumeration modes; the
	// partial answer set is kept and marked degraded (with Fallback) or
	// returned alongside ErrAnswerLimit (without).
	MaxAnswers int64
}

// Zero reports whether the budget imposes no limits.
func (b Budget) Zero() bool { return b.Wall == 0 && b.MaxTuples == 0 && b.MaxAnswers == 0 }

// TripError is the typed error for budget trips, injected faults, and
// recovered panics. It carries the progress made before the trip so callers
// can size budgets from observed failures.
type TripError struct {
	// Reason is the sentinel (or context error) classifying the trip.
	Reason error
	// Site names the fault-injection site for ErrInjected trips.
	Site string
	// Value is the recovered panic value for ErrPanic trips.
	Value any
	// Stack is the goroutine stack captured at recovery for ErrPanic trips.
	Stack []byte
	// Tuples and Answers are the meter readings when the trip fired.
	Tuples, Answers int64
	// Elapsed is the attempt's wall-clock time at the trip.
	Elapsed time.Duration
}

// Error renders the reason plus the progress snapshot.
func (e *TripError) Error() string {
	msg := "guard: trip"
	if e.Reason != nil {
		msg = e.Reason.Error()
	}
	if e.Site != "" {
		msg += fmt.Sprintf(" (site %s)", e.Site)
	}
	if e.Value != nil {
		msg += fmt.Sprintf(": %v", e.Value)
	}
	if e.Tuples > 0 || e.Answers > 0 || e.Elapsed > 0 {
		msg += fmt.Sprintf(" [tuples=%d answers=%d elapsed=%s]", e.Tuples, e.Answers, e.Elapsed.Round(time.Microsecond))
	}
	return msg
}

// Unwrap exposes the reason to errors.Is / errors.As.
func (e *TripError) Unwrap() error { return e.Reason }

// Is additionally matches ErrDeadline when the trip was caused by a context
// deadline, so callers can treat "our wall budget" and "the caller's
// context deadline" uniformly.
func (e *TripError) Is(target error) bool {
	return target == ErrDeadline && errors.Is(e.Reason, context.DeadlineExceeded)
}

// Degradable reports whether err is a budget trip the fallback ladder may
// degrade past: our own wall/tuple/answer budgets, but never a context
// cancellation or deadline (the caller asked to stop) and never an injected
// fault or recovered panic.
func Degradable(err error) bool {
	var te *TripError
	if !errors.As(err, &te) {
		return false
	}
	switch te.Reason {
	case ErrDeadline, ErrTupleBudget, ErrAnswerLimit:
		return true
	}
	return false
}

// tickMask makes the deadline/context check on the charge path fire every
// 256 charges: cheap enough for per-row charging, frequent enough that a
// hot join loop notices cancellation promptly.
const tickMask = 255

// Meter charges work against a Budget and watches a context. A nil *Meter
// is the disabled state; every method is safe on the nil receiver. All
// charging methods are safe for concurrent use (parallel evaluation shares
// one meter across workers).
type Meter struct {
	ctx      context.Context
	done     <-chan struct{}
	start    time.Time
	deadline time.Time // zero when Budget.Wall is unset
	maxT     int64
	maxA     int64
	tuples   atomic.Int64
	answers  atomic.Int64
	ticks    atomic.Int64
	trunc    atomic.Bool
	st       *obs.Stats
	counting bool // record guard.* counters (false for context-only meters)
}

// NewMeter returns a meter charging against b and watching ctx, recording
// guard.* counters on st when b sets any limit. It returns nil — the
// disabled meter — when b is zero and ctx can never be cancelled, so
// unbudgeted background evaluations pay nothing and record nothing.
func NewMeter(ctx context.Context, b Budget, st *obs.Stats) *Meter {
	if ctx == nil {
		ctx = context.Background()
	}
	if b.Zero() && ctx.Done() == nil {
		return nil
	}
	m := &Meter{
		ctx:      ctx,
		done:     ctx.Done(),
		start:    time.Now(),
		maxT:     b.MaxTuples,
		maxA:     b.MaxAnswers,
		st:       st,
		counting: !b.Zero(),
	}
	if b.Wall > 0 {
		m.deadline = m.start.Add(b.Wall)
	}
	return m
}

// Active reports whether the meter is charging (non-nil).
func (m *Meter) Active() bool { return m != nil }

// Tuples returns the intermediate tuples charged so far.
func (m *Meter) Tuples() int64 {
	if m == nil {
		return 0
	}
	return m.tuples.Load()
}

// Answers returns the answers admitted by TryAnswer so far.
func (m *Meter) Answers() int64 {
	if m == nil {
		return 0
	}
	return m.answers.Load()
}

// ChargeTuples charges n materialized intermediate tuples, tripping (by
// *TripError panic, recovered at the Solve boundary) when the cumulative
// charge exceeds Budget.MaxTuples. Every 256 charges it also runs the
// Checkpoint deadline/cancellation check.
func (m *Meter) ChargeTuples(n int64) {
	if m == nil || n <= 0 {
		return
	}
	if m.counting {
		m.st.Add(obs.CtrGuardBudgetCharges, n)
	}
	t := m.tuples.Add(n)
	if m.maxT > 0 && t > m.maxT {
		m.trip(ErrTupleBudget)
	}
	if m.ticks.Add(1)&tickMask == 0 {
		m.checkTime()
	}
}

// Checkpoint trips (by *TripError panic) when the context is done or the
// wall-clock budget is spent. Evaluation layers call it at loop heads —
// join waves, semijoin passes, root-candidate expansions — so even work
// that materializes nothing cancels promptly.
func (m *Meter) Checkpoint() {
	if m == nil {
		return
	}
	m.checkTime()
}

func (m *Meter) checkTime() {
	if m.done != nil {
		select {
		case <-m.done:
			m.trip(m.ctx.Err())
		default:
		}
	}
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		m.trip(ErrDeadline)
	}
}

// TryAnswer consumes one unit of the answer budget, reporting whether the
// caller may add another answer. When the budget is exhausted it returns
// false and marks the meter truncated instead of tripping, so enumeration
// keeps its partial answer set. Always true on the nil meter or when
// Budget.MaxAnswers is unset.
func (m *Meter) TryAnswer() bool {
	if m == nil || m.maxA <= 0 {
		return true
	}
	for {
		cur := m.answers.Load()
		if cur >= m.maxA {
			m.trunc.Store(true)
			return false
		}
		if m.answers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Truncated reports whether TryAnswer ever refused an answer.
func (m *Meter) Truncated() bool { return m != nil && m.trunc.Load() }

// AnswerLimitError builds the ErrAnswerLimit trip error for a truncated
// enumeration (the non-panicking branch of the taxonomy: the partial set
// survives in the result).
func (m *Meter) AnswerLimitError() error {
	te := m.newTrip(ErrAnswerLimit)
	if m != nil && m.counting {
		m.st.Inc(obs.CtrGuardBudgetTrips)
	}
	return te
}

func (m *Meter) newTrip(reason error) *TripError {
	te := &TripError{Reason: reason}
	if m != nil {
		te.Tuples = m.tuples.Load()
		te.Answers = m.answers.Load()
		te.Elapsed = time.Since(m.start)
	}
	return te
}

// trip aborts the attempt. The panic is the internal abort mechanism; it is
// recovered into an error at the Solve boundary and never escapes a public
// entry point.
func (m *Meter) trip(reason error) {
	if m.counting {
		m.st.Inc(obs.CtrGuardBudgetTrips)
	}
	// budget-trip unwinding: recovered into a *TripError error at the Solve boundary (AsError)
	panic(m.newTrip(reason))
}

// AsError converts a recovered panic value into the boundary error: trip
// panics pass through as their *TripError (counting injected faults),
// foreign panics wrap into an ErrPanic trip with the captured stack,
// counted as guard.recovered_panics on st.
func AsError(r any, st *obs.Stats) error {
	if te, ok := r.(*TripError); ok {
		switch {
		case errors.Is(te.Reason, ErrInjected):
			st.Inc(obs.CtrGuardInjectedFaults)
		case errors.Is(te.Reason, ErrPanic):
			st.Inc(obs.CtrGuardRecoveredPanics)
		}
		return te
	}
	st.Inc(obs.CtrGuardRecoveredPanics)
	return &TripError{Reason: ErrPanic, Value: r, Stack: debug.Stack()}
}

// FromPanic wraps a panic value captured off the boundary goroutine (the
// worker pool uses it to transport worker panics back to the caller).
// *TripError values pass through; anything else becomes an ErrPanic trip
// with the worker's stack. No counters are recorded here — the boundary's
// AsError counts each failure exactly once.
func FromPanic(r any) *TripError {
	if te, ok := r.(*TripError); ok {
		return te
	}
	return &TripError{Reason: ErrPanic, Value: r, Stack: debug.Stack()}
}
