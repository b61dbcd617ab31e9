package wdpt_test

import (
	"reflect"
	"testing"

	"wdpt"
	"wdpt/internal/gen"
)

// Counter-exactness tests on the Figure 1 fixture: the work counters are
// deterministic functions of query, database, and engine, so they are
// pinned exactly. A change in any number is a change in how much work an
// engine does — either an intended optimization (update the constant and
// say why) or a regression (investigate).

func snapshotDiff(t *testing.T, got, want map[string]int64) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counter snapshot mismatch:\n got: %v\nwant: %v", got, want)
	}
}

// TestCounterExactnessNaive pins the naive engine's work on Figure 1: pure
// backtracking — homomorphism search only, no semijoins, no plans, no bags.
func TestCounterExactnessNaive(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	st := wdpt.NewStats()
	eng := wdpt.WithStats(wdpt.NaiveEngine(), st)
	if got := len(solve(t, p, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate, Engine: eng}).Answers); got != 2 {
		t.Fatalf("p(D) has %d answers, want 2", got)
	}
	snapshotDiff(t, st.Snapshot(), map[string]int64{
		"core.extension_units_tested": 5,
		"cq.homomorphisms_found":      3,
		"cq.tuples_scanned":           3,
		"cqeval.project_calls":        6,
		"db.dict_lookups":             6,
		"db.index_probes":             4,
		"db.index_probe_rows":         4,
	})
}

// TestCounterExactnessYannakakis pins the Yannakakis engine's work on
// Figure 1: every node's CQ is acyclic, so each gets a join tree (3 built;
// the formed_in unit is reached from two subtrees, with and without the
// rating unit, but is keyed by its chain of nodes and so prepared once,
// with no plan-cache hit), two semijoin passes over the two-atom root, and
// one join in the projecting pass.
func TestCounterExactnessYannakakis(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	st := wdpt.NewStats()
	eng := wdpt.WithStats(wdpt.YannakakisEngine(), st)
	if got := len(solve(t, p, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate, Engine: eng}).Answers); got != 2 {
		t.Fatalf("p(D) has %d answers, want 2", got)
	}
	snapshotDiff(t, st.Snapshot(), map[string]int64{
		"core.extension_units_tested": 5,
		"cq.homomorphisms_found":      5,
		"cq.tuples_scanned":           5,
		"cqeval.bag_rows":             5,
		"cqeval.bags_built":           7,
		"cqeval.join_trees_built":     3,
		"cqeval.joins":                1,
		"cqeval.plan_cache_misses":    3,
		"cqeval.project_calls":        6,
		"cqeval.semijoin_passes":      2,
		"db.dict_lookups":             6,
		"db.index_probes":             5,
		"db.index_probe_rows":         6,
	})
}

// TestCounterExactnessBands pins the band-enumeration EVAL baseline on
// Figure 1: deciding h ∈ p(D) for the rated answer needs one band, one
// extension-unit test, and one maximality check. The maximality check
// transfers its fixed bindings as pre-resolved IDs, so only the band
// search's own fixed bindings and constants cost dictionary probes.
func TestCounterExactnessBands(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	st := wdpt.NewStats()
	h := wdpt.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}
	if !solve(t, p, d, wdpt.SolveOptions{Mode: wdpt.ModeExactNaive, Mapping: h, Stats: st}).Holds {
		t.Fatal("h should be an answer of Figure 1 over Example 2's database")
	}
	snapshotDiff(t, st.Snapshot(), map[string]int64{
		"core.bands_enumerated":       1,
		"core.extension_units_tested": 1,
		"core.maximality_checks":      1,
		"cq.homomorphisms_found":      3,
		"db.dict_lookups":             4,
	})
}

// TestAutoFallbackCounted pins the Auto engine's fallback accounting on a
// cyclic query (the triangle): each Satisfiable call records exactly one
// fallback to the decomposition engine, the first call plans from scratch
// (a negative join-tree probe plus the decomposition: two cache misses),
// and the second call reuses both cached plans.
func TestAutoFallbackCounted(t *testing.T) {
	d := wdpt.NewDatabase()
	d.Insert("E", "a", "b")
	d.Insert("E", "b", "c")
	d.Insert("E", "c", "a")
	atoms := []wdpt.Atom{
		wdpt.NewAtom("E", wdpt.V("x"), wdpt.V("y")),
		wdpt.NewAtom("E", wdpt.V("y"), wdpt.V("z")),
		wdpt.NewAtom("E", wdpt.V("z"), wdpt.V("x")),
	}
	st := wdpt.NewStats()
	eng := wdpt.WithStats(wdpt.AutoEngine(), st)
	if !eng.Satisfiable(atoms, d, nil) {
		t.Fatal("triangle query should be satisfiable on the triangle")
	}
	first := map[string]int64{
		"cq.homomorphisms_found":      3,
		"cq.tuples_scanned":           6,
		"cqeval.bag_rows":             15,
		"cqeval.bags_built":           3,
		"cqeval.decompositions_built": 1,
		"cqeval.domain_product_rows":  12,
		"cqeval.fallbacks":            1,
		"cqeval.plan_cache_misses":    2,
		"cqeval.satisfiable_calls":    1,
		"cqeval.semijoin_passes":      2,
		"db.index_probes":             9,
		"db.index_probe_rows":         9,
	}
	snapshotDiff(t, st.Snapshot(), first)
	if !eng.Satisfiable(atoms, d, nil) {
		t.Fatal("triangle query should still be satisfiable")
	}
	// Second call: work doubles except planning, which is served from the
	// cache (hits go up, built/misses stay flat).
	second := map[string]int64{
		"cq.homomorphisms_found":      6,
		"cq.tuples_scanned":           12,
		"cqeval.bag_rows":             30,
		"cqeval.bags_built":           6,
		"cqeval.decompositions_built": 1,
		"cqeval.domain_product_rows":  24,
		"cqeval.fallbacks":            2,
		"cqeval.plan_cache_hits":      2,
		"cqeval.plan_cache_misses":    2,
		"cqeval.satisfiable_calls":    2,
		"cqeval.semijoin_passes":      4,
		"db.index_probes":             18,
		"db.index_probe_rows":         18,
	}
	snapshotDiff(t, st.Snapshot(), second)
}

// TestExplainMatchesEngines checks the facade Explain surface: each engine
// reports its own strategy for the Figure 1 root CQ, and Explain records no
// counters.
func TestExplainMatchesEngines(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	want := map[string]string{
		"naive":         "backtracking",
		"yannakakis":    "join-tree",
		"decomposition": "tree-decomposition",
		"hypertree":     "ghd",
	}
	engines := map[string]wdpt.Engine{
		"naive":         wdpt.NaiveEngine(),
		"yannakakis":    wdpt.YannakakisEngine(),
		"decomposition": wdpt.DecompositionEngine(),
		"hypertree":     wdpt.HypertreeEngine(2),
	}
	for name, eng := range engines {
		st := wdpt.NewStats()
		eng = wdpt.WithStats(eng, st)
		plans := p.ExplainNodes(d, eng)
		if len(plans) != 3 {
			t.Fatalf("%s: %d plans, want 3 (one per node)", name, len(plans))
		}
		for _, plan := range plans {
			if plan.Strategy != want[name] {
				t.Errorf("%s: strategy %q, want %q", name, plan.Strategy, want[name])
			}
		}
		if plans[0].Label != "node 0" || plans[0].Atoms != 2 {
			t.Errorf("%s: root plan %+v, want label \"node 0\" with 2 atoms", name, plans[0])
		}
		if snap := st.Snapshot(); len(snap) != 0 {
			t.Errorf("%s: Explain recorded counters %v, want none", name, snap)
		}
	}
}
