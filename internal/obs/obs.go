// Package obs is the engine-level observability layer: atomic counters,
// span-style tracing, a benchmark timer, and the EXPLAIN plan value shared
// by every evaluation engine.
//
// The paper's complexity claims are *shape* claims — LOGCFL vs. Σ₂ᴾ shows
// up as how many homomorphisms, semijoins, and band enumerations an
// evaluation performs — so every evaluation layer (internal/cq,
// internal/cqeval, internal/core, internal/subsume, internal/approx,
// internal/uwdpt) reports its intermediate work through this package. The
// counters let any run be read as a work profile instead of an opaque
// wall-clock number; see docs/OBSERVABILITY.md for the full glossary.
//
// Design constraints:
//
//   - stdlib only, no globals writing to stdout: all sinks are injected, so
//     library packages never write to the process's standard streams;
//   - near-zero overhead when disabled: a nil *Stats is the disabled state,
//     every method is safe on the nil receiver, and the fast path is a
//     single predictable branch (verified by BenchmarkObsDisabled).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter identifies one engine-level counter. The numeric values are an
// internal detail; names (see String) are the stable identifiers used in
// -stats output, BENCH_*.json artifacts, and the glossary.
type Counter int

// The registered counters. Every counter listed here is incremented by some
// evaluation path and documented in docs/OBSERVABILITY.md (enforced by
// TestMetricNamesDocumented).
const (
	// CtrTuplesScanned counts database tuples inspected by the backtracking
	// homomorphism solver (internal/cq).
	CtrTuplesScanned Counter = iota
	// CtrHomomorphisms counts complete homomorphisms enumerated.
	CtrHomomorphisms
	// CtrSatisfiableCalls counts Engine.Satisfiable invocations.
	CtrSatisfiableCalls
	// CtrProjectCalls counts Engine.Project invocations.
	CtrProjectCalls
	// CtrSemijoinPasses counts semijoin operations over plan relations.
	CtrSemijoinPasses
	// CtrJoins counts natural joins in the projecting Yannakakis pass.
	CtrJoins
	// CtrJoinTreesBuilt counts GYO join trees computed (cache misses).
	CtrJoinTreesBuilt
	// CtrDecompositionsBuilt counts min-fill tree decompositions computed.
	CtrDecompositionsBuilt
	// CtrGHDsBuilt counts generalized hypertree decompositions computed.
	CtrGHDsBuilt
	// CtrBagsBuilt counts plan bag relations constructed.
	CtrBagsBuilt
	// CtrBagRows counts rows materialized into plan bag relations.
	CtrBagRows
	// CtrDomainProductRows counts rows produced by candidate-domain products
	// for unconstrained bag variables (decomposition engine).
	CtrDomainProductRows
	// CtrPlanCacheHits counts structural plans served from the engine's
	// plan cache.
	CtrPlanCacheHits
	// CtrPlanCacheMisses counts structural plans computed from scratch.
	CtrPlanCacheMisses
	// CtrPlanCacheEvictions counts structural plans evicted from the bounded
	// plan cache in LRU order when it reaches its size cap.
	CtrPlanCacheEvictions
	// CtrFallbacks counts engine fallback decisions (e.g. Yannakakis or the
	// GHD engine degrading to the tree-decomposition engine).
	CtrFallbacks
	// CtrBandsEnumerated counts subtrees visited by band enumeration
	// (the naive EVAL baseline and the PARTIAL-EVAL ablation).
	CtrBandsEnumerated
	// CtrExtensionUnits counts extension units tested for satisfiability.
	CtrExtensionUnits
	// CtrMaximalityChecks counts maximality checks of candidate
	// homomorphisms.
	CtrMaximalityChecks
	// CtrInterfaceMemoHits counts memoized interface-mapping lookups served
	// from cache in the Theorem 6 interface algorithm.
	CtrInterfaceMemoHits
	// CtrInterfaceMemoMisses counts interface-mapping subproblems solved.
	CtrInterfaceMemoMisses
	// CtrQuotientDBs counts the frozen canonical databases the subsumption
	// test builds, one per rooted subtree of the left-hand tree.
	CtrQuotientDBs
	// CtrInnerChecks counts inner PARTIAL-EVAL (or enumeration) subsumption
	// checks, one per canonical database.
	CtrInnerChecks
	// CtrApproxCandidates counts approximation candidates generated.
	CtrApproxCandidates
	// CtrApproxVerified counts candidates verified by subsumption tests.
	CtrApproxVerified
	// CtrUnionMemberEvals counts per-member evaluations in union problems.
	CtrUnionMemberEvals
	// CtrUnionCQs counts CQs produced by the φ_cq union translation.
	CtrUnionCQs
	// CtrParFanouts counts parallel fan-outs dispatched by internal/par
	// (batches that actually ran on more than one goroutine).
	CtrParFanouts
	// CtrParTasks counts tasks executed through internal/par fan-outs.
	CtrParTasks
	// CtrParInline counts fan-out batches that ran inline on the calling
	// goroutine because no worker token was free (the pool was saturated).
	CtrParInline
	// CtrParMaxInFlight is a high-water mark: the largest number of
	// goroutines a single fan-out put to work at once.
	CtrParMaxInFlight
	// CtrGuardBudgetCharges counts intermediate tuples charged against an
	// active resource budget (internal/guard).
	CtrGuardBudgetCharges
	// CtrGuardBudgetTrips counts budget trips: attempts aborted by the
	// wall-clock, tuple, or answer budget.
	CtrGuardBudgetTrips
	// CtrGuardFallbackHops counts degradation steps taken by the fallback
	// ladder (exact → maximal → partial).
	CtrGuardFallbackHops
	// CtrGuardRecoveredPanics counts panics recovered into errors at the
	// Solve boundaries.
	CtrGuardRecoveredPanics
	// CtrGuardInjectedFaults counts injected faults surfaced as errors.
	CtrGuardInjectedFaults
	// CtrServerRequests counts query requests accepted by the wdptd server
	// (after admission control, before evaluation).
	CtrServerRequests
	// CtrServerCacheHits counts query responses served from the wdptd
	// result cache.
	CtrServerCacheHits
	// CtrServerCacheMisses counts cacheable query requests that found no
	// cached response for (dataset version, query text as sent, mode,
	// options); it is counted before the query is parsed.
	CtrServerCacheMisses
	// CtrServerCacheEvictions counts result-cache entries evicted in LRU
	// order when the cache reaches its size cap.
	CtrServerCacheEvictions
	// CtrServerAdmissionRejects counts requests rejected with 429 because
	// the admission queue was full.
	CtrServerAdmissionRejects
	// CtrServerWidthRejects counts requests rejected by the fast-path
	// structural check: the query's analyzed class exceeded the server's
	// width bound.
	CtrServerWidthRejects
	// CtrServerReloads counts dataset-registry hot reloads (SIGHUP or the
	// admin endpoint).
	CtrServerReloads
	// CtrServerSnapshotLoads counts datasets loaded from a binary snapshot
	// file instead of reparsing text (startup and hot reloads).
	CtrServerSnapshotLoads
	// CtrServerSnapshotWrites counts snapshot files durably written by the
	// server (POST /admin/snapshot).
	CtrServerSnapshotWrites
	// CtrServerSnapshotQuarantined counts corrupt snapshot files moved
	// aside (renamed to *.quarantined) after failing load validation; the
	// dataset then falls back to reparsing its text file.
	CtrServerSnapshotQuarantined

	// CtrClusterRouteProxied counts /v1/query requests the coordinator
	// proxied to the ring owner of the request's dataset.
	CtrClusterRouteProxied
	// CtrClusterRouteLocal counts /v1/query requests the coordinator served
	// from its local evaluator because no healthy peer could take them.
	CtrClusterRouteLocal
	// CtrClusterScatters counts union queries split across peers by the
	// coordinator's scatter-gather path.
	CtrClusterScatters
	// CtrClusterScatterFallbacks counts scatter-gather attempts abandoned in
	// favor of local single-node evaluation because a peer tripped, degraded,
	// or was unreachable mid-query.
	CtrClusterScatterFallbacks
	// CtrClusterFailovers counts proxied requests moved to the next distinct
	// ring owner after the primary owner failed.
	CtrClusterFailovers
	// CtrClusterHealthProbes counts peer health probes issued by the
	// coordinator's background checker.
	CtrClusterHealthProbes
	// CtrClusterHealthTransitions counts peer healthy⇄unhealthy state
	// transitions observed by probes or live request outcomes.
	CtrClusterHealthTransitions
	// CtrClusterPeerFailures counts peer exchanges (probes, proxied queries,
	// scatter legs) that ended in a transport error or 5xx.
	CtrClusterPeerFailures

	// CtrDictLookups counts string→term-ID dictionary probes performed at
	// query boundaries (compiling query constants and parameter bindings).
	CtrDictLookups
	// CtrDictMisses counts dictionary probes for constants absent from the
	// active domain; such constants provably match nothing.
	CtrDictMisses
	// CtrIndexProbes counts MatchingIDs index probes issued by the
	// homomorphism solver (each a run-directory lookup: two array loads).
	CtrIndexProbes
	// CtrIndexProbeRows counts the total offsets returned by those probes.
	CtrIndexProbeRows
	// CtrMergeJoinPasses counts semijoin passes executed as sorted-run
	// merges over packed row keys.
	CtrMergeJoinPasses
	// CtrMergeJoinRows counts rows advanced over by those merge passes
	// (both sides combined).
	CtrMergeJoinRows

	numCounters // sentinel; keep last
)

// counterNames maps counters to their stable names. TestMetricNamesDocumented
// checks that every name listed here is documented in docs/OBSERVABILITY.md.
var counterNames = [numCounters]string{
	CtrTuplesScanned:       "cq.tuples_scanned",
	CtrHomomorphisms:       "cq.homomorphisms_found",
	CtrSatisfiableCalls:    "cqeval.satisfiable_calls",
	CtrProjectCalls:        "cqeval.project_calls",
	CtrSemijoinPasses:      "cqeval.semijoin_passes",
	CtrJoins:               "cqeval.joins",
	CtrJoinTreesBuilt:      "cqeval.join_trees_built",
	CtrDecompositionsBuilt: "cqeval.decompositions_built",
	CtrGHDsBuilt:           "cqeval.ghds_built",
	CtrBagsBuilt:           "cqeval.bags_built",
	CtrBagRows:             "cqeval.bag_rows",
	CtrDomainProductRows:   "cqeval.domain_product_rows",
	CtrPlanCacheHits:       "cqeval.plan_cache_hits",
	CtrPlanCacheMisses:     "cqeval.plan_cache_misses",
	CtrPlanCacheEvictions:  "cqeval.plan_cache_evictions",
	CtrFallbacks:           "cqeval.fallbacks",
	CtrBandsEnumerated:     "core.bands_enumerated",
	CtrExtensionUnits:      "core.extension_units_tested",
	CtrMaximalityChecks:    "core.maximality_checks",
	CtrInterfaceMemoHits:   "core.interface_memo_hits",
	CtrInterfaceMemoMisses: "core.interface_memo_misses",
	CtrQuotientDBs:         "subsume.quotient_databases",
	CtrInnerChecks:         "subsume.inner_checks",
	CtrApproxCandidates:    "approx.candidates_generated",
	CtrApproxVerified:      "approx.candidates_verified",
	CtrUnionMemberEvals:    "uwdpt.member_evals",
	CtrUnionCQs:            "uwdpt.translation_cqs",
	CtrParFanouts:          "par.fanouts",
	CtrParTasks:            "par.tasks",
	CtrParInline:           "par.inline_batches",
	CtrParMaxInFlight:      "par.max_in_flight",

	CtrGuardBudgetCharges:   "guard.budget_charges",
	CtrGuardBudgetTrips:     "guard.budget_trips",
	CtrGuardFallbackHops:    "guard.fallback_hops",
	CtrGuardRecoveredPanics: "guard.recovered_panics",
	CtrGuardInjectedFaults:  "guard.injected_faults",

	CtrServerRequests:            "server.requests",
	CtrServerCacheHits:           "server.cache_hits",
	CtrServerCacheMisses:         "server.cache_misses",
	CtrServerCacheEvictions:      "server.cache_evictions",
	CtrServerAdmissionRejects:    "server.admission_rejects",
	CtrServerWidthRejects:        "server.width_rejects",
	CtrServerReloads:             "server.reloads",
	CtrServerSnapshotLoads:       "server.snapshot_loads",
	CtrServerSnapshotWrites:      "server.snapshot_writes",
	CtrServerSnapshotQuarantined: "server.snapshot_quarantined",

	CtrClusterRouteProxied:      "cluster.route_proxied",
	CtrClusterRouteLocal:        "cluster.route_local",
	CtrClusterScatters:          "cluster.scatters",
	CtrClusterScatterFallbacks:  "cluster.scatter_fallbacks",
	CtrClusterFailovers:         "cluster.failovers",
	CtrClusterHealthProbes:      "cluster.health_probes",
	CtrClusterHealthTransitions: "cluster.health_transitions",
	CtrClusterPeerFailures:      "cluster.peer_failures",

	CtrDictLookups:     "db.dict_lookups",
	CtrDictMisses:      "db.dict_misses",
	CtrIndexProbes:     "db.index_probes",
	CtrIndexProbeRows:  "db.index_probe_rows",
	CtrMergeJoinPasses: "db.merge_join_passes",
	CtrMergeJoinRows:   "db.merge_join_rows",
}

// String returns the counter's stable name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("obs.unknown_counter_%d", int(c))
	}
	return counterNames[c]
}

// Counters returns all registered counters in declaration order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Stats is a set of engine-level counters plus an optional trace sink. All
// methods are safe for concurrent use and safe on the nil receiver: a nil
// *Stats is the disabled state, and every operation on it is a single
// branch. Evaluation layers receive a *Stats by injection (engine
// construction, Options fields, or *Obs function variants) and never write
// to process streams themselves.
type Stats struct {
	counts [numCounters]atomic.Int64
	sink   TraceSink
}

// NewStats returns an empty, enabled counter set.
func NewStats() *Stats { return &Stats{} }

// Inc increments the counter by one. No-op on nil.
func (s *Stats) Inc(c Counter) {
	if s == nil {
		return
	}
	s.counts[c].Add(1)
}

// Add increments the counter by n. No-op on nil.
func (s *Stats) Add(c Counter, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.counts[c].Add(n)
}

// Max raises the counter to v if v exceeds its current value — the
// high-water-mark update used by gauges like par.max_in_flight. No-op on
// nil.
func (s *Stats) Max(c Counter, v int64) {
	if s == nil {
		return
	}
	for {
		cur := s.counts[c].Load()
		if v <= cur || s.counts[c].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get returns the current value of the counter; 0 on nil.
func (s *Stats) Get(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.counts[c].Load()
}

// Reset zeroes every counter. No-op on nil.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	for i := range s.counts {
		s.counts[i].Store(0)
	}
}

// Snapshot returns the nonzero counters by name. The map is a copy; nil
// Stats yields an empty map.
func (s *Stats) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if s == nil {
		return out
	}
	for i := range s.counts {
		if v := s.counts[i].Load(); v != 0 {
			out[Counter(i).String()] = v
		}
	}
	return out
}

// Format renders the nonzero counters as aligned "name  value" lines in
// name order — the human form behind wdpteval -stats.
func (s *Stats) Format() string {
	snap := s.Snapshot()
	if len(snap) == 0 {
		return "(no counters recorded)\n"
	}
	names := make([]string, 0, len(snap))
	width := 0
	for name := range snap {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-*s  %d\n", width, name, snap[name])
	}
	return b.String()
}
