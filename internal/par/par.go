// Package par is the bounded worker-pool substrate behind the parallel
// evaluation paths of internal/core, internal/cqeval, internal/uwdpt, and
// internal/approx.
//
// The design is dictated by the repository's determinism contract
// (docs/OBSERVABILITY.md, "Concurrency & cancellation"):
//
//   - a nil *Pool is the sequential pool: Run and Map degrade to a plain
//     in-order loop with zero goroutines and zero par.* counters, so
//     Parallelism ≤ 1 reproduces the legacy sequential behavior (and its
//     pinned counter snapshots) bit for bit;
//   - results are returned indexed by input position, so callers merge them
//     in a fixed order regardless of scheduling (byte-stable output at any
//     worker count);
//   - fan-outs only ever parallelize work whose *set* of operations is
//     independent of execution order (no short-circuits), which keeps the
//     non-par.* work counters identical at every parallelism level;
//   - nested fan-outs never deadlock: helper goroutines are acquired from a
//     token bucket without blocking, and a fan-out that finds the pool
//     saturated simply runs inline on the calling goroutine.
package par

import (
	"sync"
	"sync/atomic"

	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// Pool bounds the total number of goroutines parallel fan-outs may put to
// work at once. A nil *Pool is the sequential pool; every method is safe on
// the nil receiver.
type Pool struct {
	workers int
	tokens  chan struct{} // helper-goroutine tokens; capacity workers-1
	st      *obs.Stats
}

// New returns a pool allowing up to workers concurrently running tasks,
// recording par.* counters on st (nil st disables recording). workers ≤ 1
// returns nil — the sequential pool.
func New(workers int, st *obs.Stats) *Pool {
	if workers <= 1 {
		return nil
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers-1), st: st}
}

// Parallel reports whether the pool actually fans out (false for the
// sequential nil pool).
func (p *Pool) Parallel() bool { return p != nil }

// Workers returns the concurrency bound; 1 for the sequential pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run executes fn(0), ..., fn(n-1), fanning the calls out over the pool.
// The call returns when every task has completed. On the sequential pool
// the tasks run in index order on the calling goroutine; on a parallel pool
// the execution order is unspecified, so fn must only perform work whose
// combined effect is order-independent (atomic counters, writes to
// task-private state).
//
// A panicking task does not crash its worker goroutine: the first panic is
// captured, the remaining queued tasks are skipped, every helper drains
// back into the pool, and the panic is re-raised on the calling goroutine
// (wrapped by guard.FromPanic, so the Solve boundary recovers it into an
// error). Budget trips and injected faults inside tasks therefore unwind
// through fan-outs without leaking goroutines or tokens.
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p == nil || n == 1 {
		for i := 0; i < n; i++ {
			guard.Fault(guard.SiteParTask)
			fn(i)
		}
		return
	}
	p.st.Add(obs.CtrParTasks, int64(n))
	// Acquire helper tokens without blocking: a saturated pool (every token
	// taken by an enclosing fan-out) degrades to an inline loop, which is
	// what makes nested fan-outs deadlock-free.
	helpers := 0
	for helpers < n-1 && helpers < p.workers-1 {
		select {
		case p.tokens <- struct{}{}:
			helpers++
			continue
		default:
		}
		break
	}
	if helpers == 0 {
		p.st.Inc(obs.CtrParInline)
		for i := 0; i < n; i++ {
			guard.Fault(guard.SiteParTask)
			fn(i)
		}
		return
	}
	p.st.Inc(obs.CtrParFanouts)
	p.st.Max(obs.CtrParMaxInFlight, int64(helpers+1))
	var next atomic.Int64
	var failure atomic.Pointer[guard.TripError]
	work := func() {
		for failure.Load() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						failure.CompareAndSwap(nil, guard.FromPanic(r))
					}
				}()
				guard.Fault(guard.SiteParTask)
				fn(i)
			}()
		}
	}
	var wg sync.WaitGroup
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-p.tokens }()
			work()
		}()
	}
	work() // the caller participates; its token is implicit
	wg.Wait()
	if te := failure.Load(); te != nil {
		// re-raise of a captured worker panic on the caller; recovered at the Solve boundary (guard.AsError)
		panic(te)
	}
}

// Map computes fn(0), ..., fn(n-1) over the pool and returns the results
// indexed by input position, so callers can merge them in a deterministic
// order no matter how the tasks were scheduled.
func Map[T any](p *Pool, n int, fn func(int) T) []T {
	out := make([]T, n)
	p.Run(n, func(i int) { out[i] = fn(i) })
	return out
}
