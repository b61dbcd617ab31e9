package wdpt_test

import (
	"reflect"
	"testing"

	"wdpt"
	"wdpt/internal/core"
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

// TestCounterExactnessNaive pins the naive engine's work, and that of an
// enumeration that names no engine (SolveOptions.Engine nil, the library
// default subsume, approx and the E5–E12 experiments use, which runs on
// the naive engine), on Figure 1 over Example 2's database and on the
// point_mix band tree, in both enumeration modes: one bag per run of a
// prepared query (on Figure 1 the root and five extension units), filled
// by the backtracking search, with no plan lookups, semijoins or joins. On
// the band tree, the published ∧ rating unit checks its ground atom
// published(x, after_2010) by a fact lookup before it searches rating(x, z).
func TestCounterExactnessNaive(t *testing.T) {
	band, err := wdpt.ParseQuery(bandPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	figure1 := gen.MusicWDPT("x", "y", "z", "zp")
	figure1Work := map[string]int64{
		"core.extension_units_tested": 5,
		"cq.homomorphisms_found":      3,
		"cq.tuples_scanned":           3,
		"cqeval.bag_rows":             3,
		"cqeval.bags_built":           6,
		"cqeval.project_calls":        6,
		"db.dict_lookups":             6,
		"db.index_probes":             4,
		"db.index_probe_rows":         4,
	}
	bandWork := map[string]int64{
		"core.extension_units_tested": 19,
		"cq.homomorphisms_found":      15,
		"cq.tuples_scanned":           15,
		"cqeval.bag_rows":             15,
		"cqeval.bags_built":           12,
		"cqeval.project_calls":        20,
		"db.dict_lookups":             12,
		"db.index_probes":             22,
		"db.index_probe_rows":         30,
	}
	cases := []struct {
		name    string
		tree    *wdpt.PatternTree
		d       *wdpt.Database
		mode    core.Mode
		answers int
		want    map[string]int64
	}{
		{"figure1/enumerate", figure1, gen.MusicDatabase(), wdpt.ModeEnumerate, 2, figure1Work},
		{"figure1/maximal", figure1, gen.MusicDatabase(), wdpt.ModeMaximal, 2, figure1Work},
		{"band/enumerate", band, gen.MusicDatabaseLarge(500, 6, 1), wdpt.ModeEnumerate, 6, bandWork},
		{"band/maximal", band, gen.MusicDatabaseLarge(500, 6, 1), wdpt.ModeMaximal, 6, bandWork},
	}
	for _, c := range cases {
		for _, named := range []bool{false, true} {
			name := c.name + "/nil"
			if named {
				name = c.name + "/naive"
			}
			t.Run(name, func(t *testing.T) {
				st := wdpt.NewStats()
				opts := wdpt.SolveOptions{Mode: c.mode, Stats: st}
				if named {
					opts = wdpt.SolveOptions{Mode: c.mode, Engine: wdpt.WithStats(wdpt.NaiveEngine(), st)}
				}
				if got := len(solve(t, c.tree, c.d, opts).Answers); got != c.answers {
					t.Fatalf("%d answers, want %d", got, c.answers)
				}
				snapshotDiff(t, st.Snapshot(), c.want)
			})
		}
	}
}

// TestCounterExactnessNaivePartial pins the naive engine's work on two
// partial-answer checks on Figure 1 over Example 2's database, each one
// Satisfiable call that stops at the first homomorphism. Binding only y
// leaves every root atom open for the search; binding x makes
// published(x, after_2010) ground, and a ground atom is checked by a fact
// lookup that counts no homomorphism and no dictionary lookup, as on every
// plan engine.
func TestCounterExactnessNaivePartial(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	for _, c := range []struct {
		name string
		h    wdpt.Mapping
		want map[string]int64
	}{
		{"y", wdpt.Mapping{"y": "Caribou"}, map[string]int64{
			"cq.homomorphisms_found":   1,
			"cq.tuples_scanned":        1,
			"cqeval.satisfiable_calls": 1,
			"db.dict_lookups":          2,
			"db.index_probes":          3,
			"db.index_probe_rows":      6,
		}},
		{"x", wdpt.Mapping{"x": "Swim"}, map[string]int64{
			"cq.homomorphisms_found":   1,
			"cq.tuples_scanned":        1,
			"cqeval.satisfiable_calls": 1,
			"db.dict_lookups":          1,
			"db.index_probes":          2,
			"db.index_probe_rows":      2,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := wdpt.NewStats()
			eng := wdpt.WithStats(wdpt.NaiveEngine(), st)
			if !solve(t, p, gen.MusicDatabase(), wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: c.h, Engine: eng}).Holds {
				t.Fatalf("%v should be a partial answer of Figure 1 over Example 2's database", c.h)
			}
			snapshotDiff(t, st.Snapshot(), c.want)
		})
	}
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
