package par

import (
	"errors"
	"sync/atomic"
	"testing"

	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

func TestNilPoolIsSequential(t *testing.T) {
	var p *Pool
	if p.Parallel() {
		t.Fatal("nil pool reports Parallel")
	}
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers = %d, want 1", p.Workers())
	}
	var order []int
	p.Run(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential pool ran out of order: %v", order)
		}
	}
}

func TestNewSequentialThreshold(t *testing.T) {
	for _, w := range []int{-1, 0, 1} {
		if New(w, nil) != nil {
			t.Fatalf("New(%d) should be the sequential pool", w)
		}
	}
	if New(2, nil) == nil {
		t.Fatal("New(2) should be parallel")
	}
}

func TestMapIndexesResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers, nil)
		got := Map(p, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: Map[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	p := New(4, nil)
	const n = 1000
	var counts [n]atomic.Int32
	p.Run(n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestNestedFanoutCompletes(t *testing.T) {
	p := New(3, nil)
	var total atomic.Int64
	p.Run(10, func(int) {
		p.Run(10, func(int) {
			p.Run(10, func(int) { total.Add(1) })
		})
	})
	if got := total.Load(); got != 1000 {
		t.Fatalf("nested fan-out ran %d leaf tasks, want 1000", got)
	}
}

func TestCounters(t *testing.T) {
	st := obs.NewStats()
	p := New(4, st)
	p.Run(50, func(int) {})
	if got := st.Get(obs.CtrParTasks); got != 50 {
		t.Fatalf("par.tasks = %d, want 50", got)
	}
	if st.Get(obs.CtrParFanouts)+st.Get(obs.CtrParInline) == 0 {
		t.Fatal("no fan-out or inline batch recorded")
	}
	if hw := st.Get(obs.CtrParMaxInFlight); hw > 4 {
		t.Fatalf("par.max_in_flight = %d exceeds pool bound 4", hw)
	}

	// The sequential pool records nothing: Parallelism=1 must reproduce the
	// legacy counter snapshots exactly.
	st2 := obs.NewStats()
	New(1, st2).Run(50, func(int) {})
	if snap := st2.Snapshot(); len(snap) != 0 {
		t.Fatalf("sequential pool recorded counters: %v", snap)
	}
}

func TestStatsMax(t *testing.T) {
	st := obs.NewStats()
	st.Max(obs.CtrParMaxInFlight, 3)
	st.Max(obs.CtrParMaxInFlight, 2)
	if got := st.Get(obs.CtrParMaxInFlight); got != 3 {
		t.Fatalf("Max high-water = %d, want 3", got)
	}
	st.Max(obs.CtrParMaxInFlight, 7)
	if got := st.Get(obs.CtrParMaxInFlight); got != 7 {
		t.Fatalf("Max high-water = %d, want 7", got)
	}
}

// recoverAny runs f and returns whatever it panicked with (nil if none).
func recoverAny(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestRunPropagatesTaskPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers, nil)
		var ran atomic.Int64
		v := recoverAny(func() {
			p.Run(64, func(i int) {
				ran.Add(1)
				if i == 7 {
					panic("task blew up")
				}
			})
		})
		if workers <= 1 {
			// The sequential pool runs tasks on the calling goroutine, so
			// the panic propagates raw; the Solve boundary wraps it there.
			if v != any("task blew up") {
				t.Fatalf("sequential pool re-raised %v, want the raw task value", v)
			}
		} else {
			te, ok := v.(*guard.TripError)
			if !ok {
				t.Fatalf("workers=%d: Run re-raised %T(%v), want *guard.TripError", workers, v, v)
			}
			if !errors.Is(te, guard.ErrPanic) || te.Value != "task blew up" {
				t.Errorf("workers=%d: trip = %+v, want ErrPanic carrying the task value", workers, te)
			}
			if len(te.Stack) == 0 {
				t.Errorf("workers=%d: captured panic lost its stack", workers)
			}
		}
		if n := ran.Load(); n < 1 || n > 64 {
			t.Errorf("workers=%d: %d tasks ran, want within [1, 64]", workers, n)
		}
		// The pool must be fully drained and reusable after the panic.
		var after atomic.Int64
		p.Run(16, func(int) { after.Add(1) })
		if after.Load() != 16 {
			t.Errorf("workers=%d: pool broken after panic: %d/16 tasks ran", workers, after.Load())
		}
	}
}

func TestRunTripErrorPassesThroughUnwrapped(t *testing.T) {
	trip := &guard.TripError{Reason: guard.ErrTupleBudget, Tuples: 9}
	p := New(4, nil)
	v := recoverAny(func() {
		p.Run(32, func(i int) {
			if i == 3 {
				// test raises a budget trip inside a task on purpose
				panic(trip)
			}
		})
	})
	if v != any(trip) {
		t.Fatalf("Run re-raised %v, want the original *TripError unchanged", v)
	}
}
