package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
)

// TestExample2 reproduces Example 2: the evaluation of the Figure 1 WDPT
// over the five-triple music database consists of exactly μ1 and μ2.
func TestExample2(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	answers := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
	mu1 := cq.Mapping{"x": "Our_love", "y": "Caribou"}
	mu2 := cq.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}
	if len(answers) != 2 {
		t.Fatalf("answers = %v, want {μ1, μ2}", answers)
	}
	set := make(map[string]bool, len(answers))
	for _, h := range answers {
		set[h.Key()] = true
	}
	if !set[mu1.Key()] || !set[mu2.Key()] {
		t.Fatalf("answers = %v, want μ1=%v and μ2=%v", answers, mu1, mu2)
	}
}

// TestExample3 reproduces Example 3: projecting out x restricts μ1, μ2 to
// μ1' = {y: Caribou} and μ2' = {y: Caribou, z: 2} — and both remain
// answers although μ1' ⊏ μ2'.
func TestExample3(t *testing.T) {
	p := gen.MusicWDPT("y", "z", "zp")
	d := gen.MusicDatabase()
	answers := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
	mu1p := cq.Mapping{"y": "Caribou"}
	mu2p := cq.Mapping{"y": "Caribou", "z": "2"}
	if len(answers) != 2 {
		t.Fatalf("answers = %v, want {μ1', μ2'}", answers)
	}
	set := make(map[string]bool, len(answers))
	for _, h := range answers {
		set[h.Key()] = true
	}
	if !set[mu1p.Key()] || !set[mu2p.Key()] {
		t.Fatalf("answers = %v, want μ1'=%v, μ2'=%v", answers, mu1p, mu2p)
	}
}

// TestExample7 reproduces Example 7: under the maximal-mappings semantics
// with free variables {y, z}, only μ2 survives.
func TestExample7(t *testing.T) {
	p := gen.MusicWDPT("y", "z")
	d := gen.MusicDatabase()
	max := solve(t, p, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers
	if len(max) != 1 {
		t.Fatalf("p_m(D) = %v, want exactly μ2", max)
	}
	if !max[0].Equal(cq.Mapping{"y": "Caribou", "z": "2"}) {
		t.Fatalf("p_m(D) = %v", max)
	}
	// Both μ1 and μ2 are still in p(D).
	if got := len(solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers); got != 2 {
		t.Fatalf("p(D) = %d answers, want 2", got)
	}
}

func TestEvalDecisionMusic(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	eng := cqeval.Auto()
	cases := []struct {
		h    cq.Mapping
		want bool
	}{
		{cq.Mapping{"x": "Our_love", "y": "Caribou"}, true},
		{cq.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}, true},
		// Not maximal: Swim extends with its rating.
		{cq.Mapping{"x": "Swim", "y": "Caribou"}, false},
		// Wrong value.
		{cq.Mapping{"x": "Swim", "y": "Nobody", "z": "2"}, false},
		// Binding a non-free variable name.
		{cq.Mapping{"w": "Swim"}, false},
	}
	for i, c := range cases {
		if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: c.h}).Holds; got != c.want {
			t.Fatalf("case %d: Eval(%v) = %v, want %v", i, c.h, got, c.want)
		}
		if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeExact, Mapping: c.h, Engine: eng}).Holds; got != c.want {
			t.Fatalf("case %d: EvalInterface(%v) = %v, want %v", i, c.h, got, c.want)
		}
	}
}

func TestPartialEvalMusic(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	eng := cqeval.Auto()
	// {x: Swim, y: Caribou} is not an exact answer but is a partial one.
	h := cq.Mapping{"x": "Swim", "y": "Caribou"}
	if solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: h}).Holds {
		t.Fatal("should not be an exact answer")
	}
	if !solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds {
		t.Fatal("should be a partial answer")
	}
	if !p.PartialEvalEnumerate(d, h) {
		t.Fatal("enumeration baseline disagrees")
	}
	// z' never matches: no partial answer binds zp.
	if solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: cq.Mapping{"zp": "1970"}, Engine: eng}).Holds {
		t.Fatal("zp has no match in the database")
	}
	// Non-free variable.
	if solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: cq.Mapping{"nonfree": "1"}, Engine: eng}).Holds {
		t.Fatal("non-free variable accepted")
	}
	// The empty mapping is a partial answer iff p(D) is nonempty.
	if !solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: cq.Mapping{}, Engine: eng}).Holds {
		t.Fatal("empty mapping should be a partial answer")
	}
}

func TestMaxEvalMusic(t *testing.T) {
	p := gen.MusicWDPT("y", "z")
	d := gen.MusicDatabase()
	eng := cqeval.Auto()
	if !solve(t, p, d, core.SolveOptions{Mode: core.ModeMax, Mapping: cq.Mapping{"y": "Caribou", "z": "2"}, Engine: eng}).Holds {
		t.Fatal("μ2 should be a maximal answer")
	}
	if solve(t, p, d, core.SolveOptions{Mode: core.ModeMax, Mapping: cq.Mapping{"y": "Caribou"}, Engine: eng}).Holds {
		t.Fatal("μ1' is subsumed by μ2'")
	}
	if solve(t, p, d, core.SolveOptions{Mode: core.ModeMax, Mapping: cq.Mapping{"y": "Nobody"}, Engine: eng}).Holds {
		t.Fatal("not even a partial answer")
	}
}

// TestProposition3 exercises the 3-colorability reduction: h ∈ p(D) iff the
// graph is 3-colorable, for both the naive and the interface engines.
func TestProposition3(t *testing.T) {
	graphs := []struct {
		name string
		g    gen.Graph
		want bool
	}{
		{"triangle", gen.CompleteGraph(3), true},
		{"K4", gen.CompleteGraph(4), false},
		{"C5", gen.CycleGraph(5), true},
		{"single-edge", gen.Graph{N: 2, Edges: [][2]int{{0, 1}}}, true},
	}
	eng := cqeval.Auto()
	for _, tc := range graphs {
		if tc.g.IsThreeColorable() != tc.want {
			t.Fatalf("%s: oracle wrong", tc.name)
		}
		p, d, h := gen.ThreeColorInstance(tc.g)
		if !p.GloballyIn(cq.TW(1)) {
			t.Fatalf("%s: reduction instance should be in g-TW(1)", tc.name)
		}
		if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: h}).Holds; got != tc.want {
			t.Fatalf("%s: Eval = %v, want %v", tc.name, got, tc.want)
		}
		if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeExact, Mapping: h, Engine: eng}).Holds; got != tc.want {
			t.Fatalf("%s: EvalInterface = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestProposition3Random cross-checks the reduction against the oracle on
// random graphs.
func TestProposition3Random(t *testing.T) {
	eng := cqeval.Auto()
	for seed := int64(0); seed < 12; seed++ {
		g := gen.RandomGraph(5, 0.6, seed)
		p, d, h := gen.ThreeColorInstance(g)
		want := g.IsThreeColorable()
		if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeExact, Mapping: h, Engine: eng}).Holds; got != want {
			t.Fatalf("seed %d: EvalInterface = %v, want %v", seed, got, want)
		}
	}
}

// randomMapping picks a plausible query mapping: with some probability the
// projection of an actual answer (possibly truncated), otherwise random
// bindings of free variables.
func randomMapping(t *testing.T, rng *rand.Rand, p *core.PatternTree, d *db.Database) cq.Mapping {
	free := p.Free()
	if rng.Intn(2) == 0 {
		answers := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
		if len(answers) > 0 {
			h := answers[rng.Intn(len(answers))].Clone()
			// Possibly truncate to get partial/non-exact mappings.
			for v := range h {
				if rng.Intn(3) == 0 {
					delete(h, v)
				}
			}
			return h
		}
	}
	adom := d.Dict().Terms() // sorted: gen databases are sealed
	h := cq.Mapping{}
	for _, x := range free {
		if rng.Intn(2) == 0 && len(adom) > 0 {
			h[x] = adom[rng.Intn(len(adom))]
		}
	}
	return h
}

// TestEvalEnginesAgreeProperty is the central cross-validation of the WDPT
// semantics: on random trees, databases, and mappings, the naive band
// enumeration (Eval), the Theorem 6 interface algorithm (EvalInterface), and
// direct membership in the enumerated p(D) must all agree; similarly
// PARTIAL-EVAL and MAX-EVAL must agree with their definitional versions
// computed from p(D).
func TestEvalEnginesAgreeProperty(t *testing.T) {
	engs := []cqeval.Engine{cqeval.Naive(), cqeval.Auto(), cqeval.Decomposition()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, MaxChildren: 2, AtomsPerNode: 2, FreshVarsPerNode: 2}, seed)
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 7}, seed+1)
		h := randomMapping(t, rng, p, d)

		answers := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
		inAnswers := false
		for _, a := range answers {
			if a.Equal(h) {
				inAnswers = true
				break
			}
		}
		if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: h}).Holds; got != inAnswers {
			t.Logf("seed %d: Eval=%v membership=%v h=%v tree:\n%s\ndb:\n%s", seed, got, inAnswers, h, p, d)
			return false
		}
		wantPartial := false
		for _, a := range answers {
			if h.SubsumedBy(a) {
				wantPartial = true
				break
			}
		}
		wantMax := inAnswers
		if wantMax {
			for _, a := range answers {
				if h.SubsumedBy(a) && !a.SubsumedBy(h) {
					wantMax = false
					break
				}
			}
		}
		for _, eng := range engs {
			if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeExact, Mapping: h, Engine: eng}).Holds; got != inAnswers {
				t.Logf("seed %d eng %s: EvalInterface=%v want %v h=%v tree:\n%s\ndb:\n%s",
					seed, eng.Name(), got, inAnswers, h, p, d)
				return false
			}
			if got := solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds; got != wantPartial {
				t.Logf("seed %d eng %s: PartialEval=%v want %v h=%v tree:\n%s\ndb:\n%s",
					seed, eng.Name(), got, wantPartial, h, p, d)
				return false
			}
			if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds; got != wantMax {
				t.Logf("seed %d eng %s: MaxEval=%v want %v h=%v tree:\n%s\ndb:\n%s",
					seed, eng.Name(), got, wantMax, h, p, d)
				return false
			}
		}
		if got := p.PartialEvalEnumerate(d, h); got != wantPartial {
			t.Logf("seed %d: PartialEvalEnumerate=%v want %v", seed, got, wantPartial)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxEvalAgainstEnumeration checks p_m(D) membership against MaxEval on
// every enumerated answer.
func TestMaxEvalAgainstEnumeration(t *testing.T) {
	eng := cqeval.Auto()
	for seed := int64(0); seed < 15; seed++ {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2}, seed)
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 6}, seed*7+1)
		maximal := make(map[string]bool)
		for _, h := range solve(t, p, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers {
			maximal[h.Key()] = true
		}
		for _, h := range solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
			want := maximal[h.Key()]
			if got := solve(t, p, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds; got != want {
				t.Fatalf("seed %d: MaxEval(%v) = %v, want %v\ntree:\n%s", seed, h, got, want, p)
			}
		}
	}
}

// TestProjectionFreeSemantics: for projection-free WDPTs every answer is
// maximal (Section 3.4), so p(D) = p_m(D).
func TestProjectionFreeSemantics(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, FreeProb: 1.0}, seed)
		if !p.IsProjectionFree() {
			continue
		}
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 6}, seed+100)
		all := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
		max := solve(t, p, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers
		if len(all) != len(max) {
			t.Fatalf("seed %d: projection-free p(D)=%d but p_m(D)=%d", seed, len(all), len(max))
		}
	}
}

// TestCQSpecialCase: a single-node WDPT evaluates exactly like its CQ; for
// CQs, EVAL, PARTIAL-EVAL and MAX-EVAL coincide on exact answers
// (Section 5 remark).
func TestCQSpecialCase(t *testing.T) {
	q := cq.MustNew([]string{"x", "z"}, []cq.Atom{
		cq.NewAtom("E", cq.V("x"), cq.V("y")),
		cq.NewAtom("E", cq.V("y"), cq.V("z")),
	})
	p := core.FromCQ(q)
	d := gen.ChainDatabase(5)
	eng := cqeval.Auto()
	want := q.Evaluate(d)
	got := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
	if len(want) != len(got) {
		t.Fatalf("CQ answers %d, WDPT answers %d", len(want), len(got))
	}
	for _, h := range want {
		if !solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: h}).Holds || !solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds || !solve(t, p, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds {
			t.Fatalf("answer %v not recognized by all three problems", h)
		}
	}
}

func TestEvalRejectsMalformedMappings(t *testing.T) {
	p := gen.MusicWDPT("x", "y")
	d := gen.MusicDatabase()
	eng := cqeval.Auto()
	// z is a variable of the tree but not free.
	for _, h := range []cq.Mapping{
		{"z": "2"},
		{"x": "Swim", "unknown": "1"},
	} {
		if solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: h}).Holds || solve(t, p, d, core.SolveOptions{Mode: core.ModeExact, Mapping: h, Engine: eng}).Holds || solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds || solve(t, p, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds {
			t.Fatalf("malformed mapping %v accepted", h)
		}
	}
}

func TestStarWDPTEvaluation(t *testing.T) {
	p := gen.StarWDPT(3)
	d := db.New()
	d.Insert("V", "a")
	d.Insert("E", "a", "b")
	eng := cqeval.Auto()
	// Answer: x=a with z0=z1=z2=b is maximal; x=a alone is not an answer.
	full := cq.Mapping{"x": "a", "z0": "b", "z1": "b", "z2": "b"}
	if !solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: full}).Holds || !solve(t, p, d, core.SolveOptions{Mode: core.ModeExact, Mapping: full, Engine: eng}).Holds {
		t.Fatal("full star answer missing")
	}
	if solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: cq.Mapping{"x": "a"}}).Holds {
		t.Fatal("non-maximal star answer accepted")
	}
	d2 := db.New()
	d2.Insert("V", "lonely")
	if !solve(t, p, d2, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: cq.Mapping{"x": "lonely"}}).Holds {
		t.Fatal("isolated vertex answer missing")
	}
}

func TestEvaluateLargerMusic(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabaseLarge(20, 3, 42)
	answers := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
	eng := cqeval.Auto()
	if len(answers) == 0 {
		t.Fatal("expected answers on the large music db")
	}
	for _, h := range answers[:min(10, len(answers))] {
		if !solve(t, p, d, core.SolveOptions{Mode: core.ModeExact, Mapping: h, Engine: eng}).Holds {
			t.Fatalf("EvalInterface rejects enumerated answer %v", h)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestChainDatabasePathWDPT(t *testing.T) {
	// PathWDPT over a chain: the single maximal answer goes all the way.
	p := gen.PathWDPT(3, "y0", "y1", "y2", "y3")
	d := gen.ChainDatabase(5)
	eng := cqeval.Auto()
	h := cq.Mapping{"y0": "0", "y1": "1", "y2": "2", "y3": "3"}
	if !solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: h}).Holds || !solve(t, p, d, core.SolveOptions{Mode: core.ModeExact, Mapping: h, Engine: eng}).Holds {
		t.Fatal("full chain answer missing")
	}
	// Truncated mapping is not exact (extension exists) but is partial.
	ht := cq.Mapping{"y0": "0", "y1": "1"}
	if solve(t, p, d, core.SolveOptions{Mode: core.ModeExactNaive, Mapping: ht}).Holds {
		t.Fatal("truncated chain should not be exact")
	}
	if !solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: ht, Engine: eng}).Holds {
		t.Fatal("truncated chain should be partial")
	}
	_ = fmt.Sprint()
}

// solve runs one Solve call under a background context, failing the test
// on error.
func solve(t testing.TB, p *core.PatternTree, d *db.Database, opts core.SolveOptions) core.Result {
	t.Helper()
	res, err := p.Solve(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
