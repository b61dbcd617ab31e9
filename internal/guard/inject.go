// Deterministic fault injection: seeded trigger points compiled into the
// evaluation stack (internal/db, internal/par, internal/cqeval). Inactive
// sites cost one atomic load; an active Injector decides per site — by
// nth-call count or seeded probability — whether the site raises an
// ErrInjected trip, which surfaces at the Solve boundary as a wrapped
// error. The chaos suite (chaos_test.go) drives every site at parallelism
// 1/2/8 under -race.
package guard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The registered fault-injection sites.
const (
	// SiteDBMatching fires in Relation.MatchingIDs, the index probe under every
	// backtracking homomorphism step.
	SiteDBMatching = "db.matching"
	// SiteParTask fires before each task executed through a par fan-out
	// (and before each task of the sequential nil-pool loop).
	SiteParTask = "par.task"
	// SiteCQEvalBag fires at the start of each bag-relation materialization.
	SiteCQEvalBag = "cqeval.bag"
	// SiteCQEvalSemijoin fires before each semijoin pass.
	SiteCQEvalSemijoin = "cqeval.semijoin"
	// SiteSnapshotWrite fires before each chunked payload write of the
	// crash-safe snapshot writer (db/snapshot).
	SiteSnapshotWrite = "snapshot.write"
	// SiteSnapshotFsync fires before each fsync the snapshot writer issues
	// (the temp file and, after the rename, its directory).
	SiteSnapshotFsync = "snapshot.fsync"
	// SiteSnapshotRename fires before the atomic rename that publishes a
	// snapshot.
	SiteSnapshotRename = "snapshot.rename"
	// SiteSnapshotRead fires before a snapshot file is read back.
	SiteSnapshotRead = "snapshot.read"
)

// Sites lists every registered fault-injection site.
func Sites() []string {
	return []string{
		SiteDBMatching, SiteParTask, SiteCQEvalBag, SiteCQEvalSemijoin,
		SiteSnapshotWrite, SiteSnapshotFsync, SiteSnapshotRename, SiteSnapshotRead,
	}
}

// Injector decides, per site, whether a trigger point fails. Configure with
// FailNth / FailProb before Activate; the decision sequence is a pure
// function of the seed and the per-site hit order, so single-threaded runs
// replay exactly and parallel runs inject the same number of faults per
// site count.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	hits  map[string]int64
	nth   map[string]int64
	prob  map[string]float64
	delay map[string]delaySpec
}

// delaySpec is a per-site seeded-delay configuration: each hit sleeps up to
// Max with probability P. Delays perturb scheduling (completion order of
// parallel work), not correctness — determinism tests use them to shuffle
// the order scatter-gather legs finish in.
type delaySpec struct {
	p   float64
	max time.Duration
}

// NewInjector returns an injector whose probabilistic decisions are driven
// by the given seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		hits:  make(map[string]int64),
		nth:   make(map[string]int64),
		prob:  make(map[string]float64),
		delay: make(map[string]delaySpec),
	}
}

// FailNth arranges for the site's nth hit (1-based) to fail. It returns the
// injector for chaining.
func (in *Injector) FailNth(site string, n int64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.nth[site] = n
	return in
}

// FailProb arranges for each hit of the site to fail with probability p,
// drawn from the injector's seeded source. It returns the injector for
// chaining.
func (in *Injector) FailProb(site string, p float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.prob[site] = p
	return in
}

// DelayProb arranges for each hit of the site to sleep a seeded duration in
// [0, max) with probability p. Sleeps happen outside the injector's lock, so
// delayed sites stall only themselves — which is the point: a seeded delay
// shuffles the completion order of parallel work (scatter-gather legs, pool
// tasks) without changing any evaluation decision, letting determinism
// tests assert byte-identical output under adversarial scheduling. It
// returns the injector for chaining.
func (in *Injector) DelayProb(site string, p float64, max time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.delay[site] = delaySpec{p: p, max: max}
	return in
}

// Hits returns how many times the site has been evaluated.
func (in *Injector) Hits(site string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// check counts the hit and decides whether it fails and how long it should
// stall first. The returned delay is slept by the caller OUTSIDE the lock,
// so one delayed site never serializes the rest of the evaluation.
func (in *Injector) check(site string) (fail bool, delay time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[site]++
	if d, ok := in.delay[site]; ok && d.p > 0 && d.max > 0 && in.rng.Float64() < d.p {
		delay = time.Duration(in.rng.Int63n(int64(d.max)))
	}
	if n, ok := in.nth[site]; ok && in.hits[site] == n {
		return true, delay
	}
	if p, ok := in.prob[site]; ok && p > 0 && in.rng.Float64() < p {
		return true, delay
	}
	return false, delay
}

// active is the process-wide injector, nil when fault injection is off (the
// common case: Fault is then a single atomic load).
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide injector and returns a restore
// function reinstating the previous one. Tests that activate an injector
// must not run in parallel with tests that expect fault-free evaluation.
func Activate(in *Injector) (restore func()) {
	prev := active.Swap(in)
	return func() { active.Store(prev) }
}

// Fault is a fault-injection trigger point. When the active injector
// decides the site fails, it raises an ErrInjected trip (recovered into a
// wrapped error at the Solve boundary). With no active injector it is a
// single atomic load.
func Fault(site string) {
	in := active.Load()
	if in == nil {
		return
	}
	fail, delay := in.check(site)
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		// injected-fault unwinding: recovered into a *TripError error at the Solve boundary (AsError)
		panic(&TripError{Reason: ErrInjected, Site: site})
	}
}

// FaultErr is the error-returning twin of Fault for I/O seams: code that
// already threads errors (the snapshot writer/loader) wants an injected
// fault to surface as an ordinary error, not a panic that would have to be
// recovered around every syscall. It returns a *TripError wrapping
// ErrInjected when the active injector decides the site fails, nil
// otherwise. With no active injector it is a single atomic load.
func FaultErr(site string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	fail, delay := in.check(site)
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return &TripError{Reason: ErrInjected, Site: site}
	}
	return nil
}
