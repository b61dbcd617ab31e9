package uwdpt

import (
	"context"
	"errors"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/subsume"
)

func edgeTree(freeY bool) *core.PatternTree {
	free := []string{"x"}
	if freeY {
		free = append(free, "y")
	}
	return core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))},
	}, free)
}

func TestUnionBasics(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty union accepted")
	}
	u := MustNew(gen.PathWDPT(2), gen.StarWDPT(2))
	if len(u.Trees()) != 2 || u.Size() <= 0 {
		t.Fatal("union shape wrong")
	}
}

func TestUnionEvaluation(t *testing.T) {
	// Union of a music tree and an edge tree over disjoint vocabularies.
	u := MustNew(gen.MusicWDPT("x", "y"), core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("likes", cq.V("a"), cq.V("b"))},
	}, []string{"a", "b"}))
	d := gen.MusicDatabase()
	d.Insert("likes", "alice", "caribou")
	answers := solve(t, u, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
	// Music part: (Our_love, Caribou), (Swim, Caribou); likes part: 1.
	if len(answers) != 3 {
		t.Fatalf("union answers = %v, want 3", answers)
	}
	eng := cqeval.Auto()
	if !solve(t, u, d, core.SolveOptions{Mode: core.ModeExact, Mapping: cq.Mapping{"a": "alice", "b": "caribou"}, Engine: eng}).Holds {
		t.Fatal("likes answer missing")
	}
	if !solve(t, u, d, core.SolveOptions{Mode: core.ModeExact, Mapping: cq.Mapping{"x": "Swim", "y": "Caribou"}, Engine: eng}).Holds {
		t.Fatal("music answer missing")
	}
	if solve(t, u, d, core.SolveOptions{Mode: core.ModeExact, Mapping: cq.Mapping{"x": "alice"}, Engine: eng}).Holds {
		t.Fatal("bogus answer accepted")
	}
	if !solve(t, u, d, core.SolveOptions{Mode: core.ModePartial, Mapping: cq.Mapping{"y": "Caribou"}, Engine: eng}).Holds {
		t.Fatal("partial answer missing")
	}
}

func TestUnionMaxEval(t *testing.T) {
	// Two trees over the same vocabulary: p1 returns x; p2 returns x and
	// optionally y. Maximal answers bind both when possible.
	p1 := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("w"))},
	}, []string{"x"})
	p2 := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))},
	}, []string{"x", "y"})
	u := MustNew(p1, p2)
	d := gen.ChainDatabase(2) // E(0,1), E(1,2)
	eng := cqeval.Auto()
	// {x:0} ∈ φ(D) via p1 but is properly extended by {x:0, y:1} from p2.
	if solve(t, u, d, core.SolveOptions{Mode: core.ModeMax, Mapping: cq.Mapping{"x": "0"}, Engine: eng}).Holds {
		t.Fatal("{x:0} is not maximal in the union")
	}
	if !solve(t, u, d, core.SolveOptions{Mode: core.ModeMax, Mapping: cq.Mapping{"x": "0", "y": "1"}, Engine: eng}).Holds {
		t.Fatal("{x:0, y:1} should be maximal")
	}
	// Cross-check against enumerated maximal answers.
	maxSet := make(map[string]bool)
	for _, h := range solve(t, u, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers {
		maxSet[h.Key()] = true
	}
	for _, h := range solve(t, u, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
		if got := solve(t, u, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds; got != maxSet[h.Key()] {
			t.Fatalf("MaxEval(%v) = %v disagrees with enumeration", h, got)
		}
	}
}

func TestCQTranslation(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	u := MustNew(p)
	qs := u.CQTranslation(0, nil)
	// 4 subtrees, pairwise distinct CQs (Example 8 shape).
	if len(qs) != 4 {
		t.Fatalf("translation = %d CQs, want 4", len(qs))
	}
	// The cap is honored.
	if got := len(u.CQTranslation(2, nil)); got != 2 {
		t.Fatalf("capped translation = %d, want 2", got)
	}
}

// TestProposition9Equivalence: φ ≡s φ_cq (the translation is subsumption-
// equivalent to the union), checked with the exact union subsumption test.
func TestProposition9Equivalence(t *testing.T) {
	p := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("E", cq.V("y"), cq.V("z"))}},
		},
	}, []string{"x", "z"})
	u := MustNew(p)
	trans := AsUnionOfWDPTs(u.CQTranslation(0, nil))
	if ok, err := Equivalent(context.Background(), u, trans, subsume.Options{}); err != nil || !ok {
		t.Fatal("φ and φ_cq must be subsumption-equivalent")
	}
}

// TestUCQSubsumes checks the name-based CQ order behind φ_cq^r.
func TestUCQSubsumes(t *testing.T) {
	qEdge := cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))})
	qPath := cq.MustNew([]string{"x"}, []cq.Atom{
		cq.NewAtom("E", cq.V("x"), cq.V("y")), cq.NewAtom("E", cq.V("y"), cq.V("z")),
	})
	qBoth := cq.MustNew([]string{"x", "y"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))})
	if !cqSubsumed(qPath, qEdge) {
		t.Fatal("path ⊑ edge (same free var)")
	}
	if cqSubsumed(qEdge, qPath) {
		t.Fatal("edge ⋢ path")
	}
	if !cqSubsumed(qEdge, qBoth) {
		t.Fatal("edge ⊑ both: free(x) ⊆ free(x,y) with identity hom")
	}
	if cqSubsumed(qBoth, qEdge) {
		t.Fatal("both ⋢ edge: y would be dropped")
	}
}

func TestUCQReduce(t *testing.T) {
	qEdge := cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))})
	qPath := cq.MustNew([]string{"x"}, []cq.Atom{
		cq.NewAtom("E", cq.V("x"), cq.V("y")), cq.NewAtom("E", cq.V("y"), cq.V("z")),
	})
	reduced := UCQReduce([]*cq.CQ{qPath, qEdge})
	if len(reduced) != 1 || reduced[0] != qEdge {
		t.Fatalf("reduce = %v, want just the edge query", reduced)
	}
	// Equivalent duplicates collapse to one representative.
	qEdge2 := cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("w"))})
	reduced = UCQReduce([]*cq.CQ{qEdge, qEdge2})
	if len(reduced) != 1 {
		t.Fatalf("equivalent CQs should collapse, got %v", reduced)
	}
}

func TestMemberUWB(t *testing.T) {
	// A path-shaped tree: all subtree CQs are TW(1) — member.
	u := MustNew(gen.PathWDPT(3, "y0", "y3"))
	ws, member, exact := MemberUWB(u, cq.TW(1), 0)
	if !member || !exact || len(ws) == 0 {
		t.Fatalf("path union should be in M(UWB(1)): member=%v exact=%v", member, exact)
	}
	// Triangle root: not a member for TW(1).
	tri := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{
		cq.NewAtom("E", cq.V("a"), cq.V("b")),
		cq.NewAtom("E", cq.V("b"), cq.V("c")),
		cq.NewAtom("E", cq.V("c"), cq.V("a")),
		cq.NewAtom("V", cq.V("x")),
	}}, []string{"x"})
	if _, member, _ := MemberUWB(MustNew(tri), cq.TW(1), 0); member {
		t.Fatal("triangle union must not be in M(UWB(1))")
	}
	if _, member, _ := MemberUWB(MustNew(tri), cq.TW(2), 0); !member {
		t.Fatal("triangle union is in M(UWB(2))")
	}
	// A foldable (symmetric 4-cycle) member is semantically in M(UWB(1)).
	sym := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{
		cq.NewAtom("E", cq.V("a"), cq.V("b")), cq.NewAtom("E", cq.V("b"), cq.V("a")),
		cq.NewAtom("E", cq.V("b"), cq.V("c")), cq.NewAtom("E", cq.V("c"), cq.V("b")),
		cq.NewAtom("E", cq.V("c"), cq.V("d")), cq.NewAtom("E", cq.V("d"), cq.V("c")),
		cq.NewAtom("E", cq.V("d"), cq.V("a")), cq.NewAtom("E", cq.V("a"), cq.V("d")),
		cq.NewAtom("V", cq.V("x")),
	}}, []string{"x"})
	if _, member, _ := MemberUWB(MustNew(sym), cq.TW(1), 0); !member {
		t.Fatal("symmetric 4-cycle union should be in M(UWB(1)) via its core")
	}
}

func TestApproximateUWB(t *testing.T) {
	tri := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{
		cq.NewAtom("E", cq.V("a"), cq.V("b")),
		cq.NewAtom("E", cq.V("b"), cq.V("c")),
		cq.NewAtom("E", cq.V("c"), cq.V("a")),
		cq.NewAtom("V", cq.V("x")),
	}}, []string{"x"})
	u := MustNew(tri)
	approx, err := ApproximateUWB(u, cq.TW(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) == 0 {
		t.Fatal("no approximation members")
	}
	// The approximation must be subsumed by φ and consist of TW(1) CQs.
	if ok, err := Subsumes(context.Background(), AsUnionOfWDPTs(approx), u, subsume.Options{}); err != nil || !ok {
		t.Fatal("UWB approximation must be subsumed by the union")
	}
	for _, q := range approx {
		if !cq.TW(1).Contains(q) {
			t.Fatalf("approximation member %v not in TW(1)", q)
		}
	}
	// Constants are rejected.
	if _, err := ApproximateUWB(MustNew(gen.MusicWDPT("x", "y")), cq.TW(1), 0); err == nil {
		t.Fatal("constants must be rejected")
	}
	// Non-subquery-closed classes are rejected.
	if _, err := ApproximateUWB(u, cq.HW(1), 0); err == nil {
		t.Fatal("HW(k) must be rejected")
	}
}

// TestUnionSubsumptionVsMembers: φ1 ⊑ φ1 ∪ φ2, a union subsumes each
// member, and a union is not subsumed by a member that misses the other's
// answers.
func TestUnionSubsumptionVsMembers(t *testing.T) {
	p1 := edgeTree(false)
	p2 := gen.PathWDPT(2)
	u1 := MustNew(p1)
	u12 := MustNew(p1, p2)
	if ok, err := Subsumes(context.Background(), u1, u12, subsume.Options{}); err != nil || !ok {
		t.Fatal("member should be subsumed by union")
	}
	if ok, err := Subsumes(context.Background(), u12, u12, subsume.Options{}); err != nil || !ok {
		t.Fatal("union subsumes itself")
	}
	// edge ∪ path(2) ⋢ edge: the path member's answers bind y0, which no
	// answer of the edge tree binds.
	if ok, err := Subsumes(context.Background(), u12, u1, subsume.Options{}); err != nil || ok {
		t.Fatalf("Subsumes(edge ∪ path(2), edge) = %v, %v; want false", ok, err)
	}
}

func TestTheorem16AgreementProperty(t *testing.T) {
	// Union evaluation problems agree with definitional evaluation on
	// random instances.
	eng := cqeval.Auto()
	for seed := int64(0); seed < 10; seed++ {
		u := MustNew(
			gen.RandomWDPT(gen.TreeParams{MaxDepth: 1, MaxChildren: 2}, seed),
			gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, MaxChildren: 1}, seed+100),
		)
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 6}, seed+7)
		answers := solve(t, u, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
		maxSet := make(map[string]bool)
		for _, h := range solve(t, u, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers {
			maxSet[h.Key()] = true
		}
		for _, h := range answers {
			if !solve(t, u, d, core.SolveOptions{Mode: core.ModeExact, Mapping: h, Engine: eng}).Holds {
				t.Fatalf("seed %d: enumerated answer %v rejected by Eval", seed, h)
			}
			if !solve(t, u, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds {
				t.Fatalf("seed %d: enumerated answer %v rejected by PartialEval", seed, h)
			}
			if got := solve(t, u, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds; got != maxSet[h.Key()] {
				t.Fatalf("seed %d: MaxEval(%v) = %v disagrees", seed, h, got)
			}
		}
	}
}

func TestOptimizeUnionCorollary3(t *testing.T) {
	// A union containing a foldable member: the optimizer finds a witness
	// union of tractable CQs and answers identically.
	sym := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{
		cq.NewAtom("E", cq.V("a"), cq.V("b")), cq.NewAtom("E", cq.V("b"), cq.V("a")),
		cq.NewAtom("E", cq.V("b"), cq.V("c")), cq.NewAtom("E", cq.V("c"), cq.V("b")),
		cq.NewAtom("E", cq.V("c"), cq.V("d")), cq.NewAtom("E", cq.V("d"), cq.V("c")),
		cq.NewAtom("E", cq.V("d"), cq.V("a")), cq.NewAtom("E", cq.V("a"), cq.V("d")),
		cq.NewAtom("V", cq.V("x")),
	}}, []string{"x"})
	u := MustNew(sym, gen.PathWDPT(2))
	o := OptimizeUnion(u, cq.TW(1), 0)
	if !o.Tractable() {
		t.Fatal("expected a tractable witness")
	}
	eng := cqeval.Auto()
	for seed := int64(0); seed < 5; seed++ {
		d := gen.RandomDatabase(gen.DBParams{
			DomainSize:   3,
			TuplesPerRel: 8,
			Rels:         []gen.RelSpec{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
		}, seed)
		for _, h := range []cq.Mapping{{}, {"x": "0"}, {"x": "9"}, {"y0": "1"}} {
			if got, want := solve(t, o, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds, solve(t, u, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds; got != want {
				t.Fatalf("seed %d: PartialEval(%v) witness=%v direct=%v", seed, h, got, want)
			}
			if got, want := solve(t, o, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds, solve(t, u, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds; got != want {
				t.Fatalf("seed %d: MaxEval(%v) witness=%v direct=%v", seed, h, got, want)
			}
		}
	}
}

func TestOptimizeUnionNonMember(t *testing.T) {
	tri := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{
		cq.NewAtom("E", cq.V("a"), cq.V("b")),
		cq.NewAtom("E", cq.V("b"), cq.V("c")),
		cq.NewAtom("E", cq.V("c"), cq.V("a")),
		cq.NewAtom("V", cq.V("x")),
	}}, []string{"x"})
	u := MustNew(tri)
	o := OptimizeUnion(u, cq.TW(1), 0)
	if o.Tractable() {
		t.Fatal("triangle union must have no TW(1) witness")
	}
	eng := cqeval.Auto()
	d := gen.RandomDatabase(gen.DBParams{
		Rels: []gen.RelSpec{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
	}, 1)
	if solve(t, o, d, core.SolveOptions{Mode: core.ModePartial, Mapping: cq.Mapping{}, Engine: eng}).Holds != solve(t, u, d, core.SolveOptions{Mode: core.ModePartial, Mapping: cq.Mapping{}, Engine: eng}).Holds {
		t.Fatal("fallback disagrees")
	}
	if solve(t, o, d, core.SolveOptions{Mode: core.ModeMax, Mapping: cq.Mapping{}, Engine: eng}).Holds != solve(t, u, d, core.SolveOptions{Mode: core.ModeMax, Mapping: cq.Mapping{}, Engine: eng}).Holds {
		t.Fatal("fallback MaxEval disagrees")
	}
}

// solver is the evaluation entry point that trees, unions and the
// optimized evaluators share.
type solver interface {
	Solve(context.Context, *db.Database, core.SolveOptions) (core.Result, error)
}

// solve runs one Solve call under a background context, failing the test
// on error.
func solve(t testing.TB, s solver, d *db.Database, opts core.SolveOptions) core.Result {
	t.Helper()
	res, err := s.Solve(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSubsumesStopsOnCancelledContext: an already-cancelled context ends
// union subsumption with the context error before anything is enumerated.
func TestSubsumesStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	u := MustNew(gen.PathWDPT(2))
	if ok, err := Subsumes(ctx, u, u, subsume.Options{}); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Subsumes = %v, %v; want false and context.Canceled", ok, err)
	}
}

// TestSubsumesCountsOnStats: union subsumption reports its work on
// opts.Stats, with either inner check — one canonical database and one
// inner check per rooted subtree of each left-hand member: one for the
// edge tree, two for path(2).
func TestSubsumesCountsOnStats(t *testing.T) {
	u := MustNew(edgeTree(false), gen.PathWDPT(2))
	for _, enumerate := range []bool{false, true} {
		st := obs.NewStats()
		if ok, err := Subsumes(context.Background(), u, u, subsume.Options{InnerEnumerate: enumerate, Stats: st}); err != nil || !ok {
			t.Fatalf("InnerEnumerate=%v: Subsumes = %v, %v; want true", enumerate, ok, err)
		}
		for _, c := range []obs.Counter{obs.CtrQuotientDBs, obs.CtrInnerChecks} {
			if got := st.Get(c); got != 3 {
				t.Errorf("InnerEnumerate=%v: %s = %d, want 3", enumerate, c, got)
			}
		}
	}
}

// TestSubsumesAvoidsMemberConstants: the frozen constants avoid the
// constants of every member of the right-hand union, so
// R(?x) ⋢ R(?x) ∧ R("•x") as unions too.
func TestSubsumesAvoidsMemberConstants(t *testing.T) {
	left := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{cq.NewAtom("R", cq.V("x"))}}, []string{"x"})
	right := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{
		cq.NewAtom("R", cq.V("x")),
		cq.NewAtom("R", cq.C("•x")),
	}}, []string{"x"})
	if ok, err := Subsumes(context.Background(), MustNew(left), MustNew(edgeTree(false), right), subsume.Options{}); err != nil || ok {
		t.Fatalf("Subsumes = %v, %v; want false", ok, err)
	}
}
