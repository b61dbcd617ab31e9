package approx

import (
	"context"
	"errors"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/subsume"
)

// triangleCQTree is the Boolean triangle as a single-node WDPT with one
// free apex variable attached.
func triangleTree() *core.PatternTree {
	return core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{
			cq.NewAtom("E", cq.V("a"), cq.V("b")),
			cq.NewAtom("E", cq.V("b"), cq.V("c")),
			cq.NewAtom("E", cq.V("c"), cq.V("a")),
			cq.NewAtom("V", cq.V("x")),
		},
	}, []string{"x"})
}

func TestInWB(t *testing.T) {
	path := gen.PathWDPT(3)
	if !InWB(path, WB(1)) {
		t.Fatal("path tree should be in WB(1)")
	}
	if !InWB(path, WBPrime(1)) {
		t.Fatal("path tree should be in g-HW'(1)")
	}
	tri := triangleTree()
	if InWB(tri, WB(1)) {
		t.Fatal("triangle tree is not in WB(1)")
	}
	if !InWB(tri, WB(2)) {
		t.Fatal("triangle tree is in WB(2)")
	}
}

func TestApproximateTreeAlreadyInClass(t *testing.T) {
	p := gen.PathWDPT(2)
	ap, err := Approximate(context.Background(), p, WB(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ap != p {
		t.Fatal("tree in class should be its own approximation")
	}
}

func TestApproximateTriangleNode(t *testing.T) {
	// The WB(1)-approximation of the triangle node collapses the triangle
	// to a self-loop (cf. the CQ-level result).
	p := triangleTree()
	ap, err := Approximate(context.Background(), p, WB(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !InWB(ap, WB(1)) {
		t.Fatal("approximation must be in WB(1)")
	}
	if !subsumes(t, ap, p) {
		t.Fatal("approximation must be subsumed by p")
	}
	// The candidate collapsing all of a, b, c yields E(a,a); it must be
	// subsumption-equivalent to the returned approximation.
	loop := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{
			cq.NewAtom("E", cq.V("a"), cq.V("a")),
			cq.NewAtom("V", cq.V("x")),
		},
	}, []string{"x"})
	if !equivalent(t, ap, loop) {
		t.Fatalf("approximation is not the loop tree:\n%s", ap)
	}
	if !isApproximation(t, ap, p, WB(1)) {
		t.Fatal("IsApproximation rejects the computed approximation")
	}
	if isApproximation(t, p, p, WB(1)) {
		t.Fatal("p itself is not in WB(1), cannot be its own approximation")
	}
}

func TestApproximateWithOptionalChild(t *testing.T) {
	// Root is a triangle; optional child fetches a label of one triangle
	// vertex. The approximation must keep the optional child (over the
	// collapsed vertex).
	p := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{
			cq.NewAtom("E", cq.V("a"), cq.V("b")),
			cq.NewAtom("E", cq.V("b"), cq.V("c")),
			cq.NewAtom("E", cq.V("c"), cq.V("a")),
		},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("L", cq.V("a"), cq.V("l"))}},
		},
	}, []string{"l"})
	ap, err := Approximate(context.Background(), p, WB(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !InWB(ap, WB(1)) || !subsumes(t, ap, p) {
		t.Fatal("approximation invariants violated")
	}
	if ap.NumNodes() != 2 {
		t.Fatalf("approximation should keep the optional child:\n%s", ap)
	}
	// Sanity: on a database with a triangle and a label, the approximation
	// must produce only answers of p... (soundness of ⊑ on an instance).
	d := gen.RandomDatabase(gen.DBParams{}, 1)
	d.Insert("E", "t1", "t2")
	d.Insert("E", "t2", "t3")
	d.Insert("E", "t3", "t1")
	d.Insert("E", "s", "s")
	d.Insert("L", "s", "lab")
	pAns := cq.NewMappingSet()
	for _, h := range solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
		pAns.Add(h)
	}
	for _, h := range solve(t, ap, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
		ok := false
		for _, g := range solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
			if h.SubsumedBy(g) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("approximation answer %v not subsumed by any p answer", h)
		}
	}
}

func TestMemberWB(t *testing.T) {
	// A symmetric 4-cycle node folds to a symmetric edge: member of
	// M(WB(1)) although not syntactically in WB(1).
	sym := func(u, v string) []cq.Atom {
		return []cq.Atom{
			cq.NewAtom("E", cq.V(u), cq.V(v)),
			cq.NewAtom("E", cq.V(v), cq.V(u)),
		}
	}
	var atoms []cq.Atom
	atoms = append(atoms, sym("a", "b")...)
	atoms = append(atoms, sym("b", "c")...)
	atoms = append(atoms, sym("c", "d")...)
	atoms = append(atoms, sym("d", "a")...)
	atoms = append(atoms, cq.NewAtom("V", cq.V("x")))
	p := core.MustNew(core.NodeSpec{Atoms: atoms}, []string{"x"})
	if InWB(p, WB(1)) {
		t.Fatal("4-cycle is not syntactically TW(1)")
	}
	w, ok := memberWB(t, p, WB(1))
	if !ok {
		t.Fatal("even cycle tree should be in M(WB(1))")
	}
	if !equivalent(t, p, w) {
		t.Fatal("witness is not subsumption-equivalent")
	}
	// The triangle tree is not in M(WB(1)).
	if _, ok := memberWB(t, triangleTree(), WB(1)); ok {
		t.Fatal("triangle tree must not be in M(WB(1))")
	}
	// Trees in the class are trivially members.
	path := gen.PathWDPT(2)
	if w, ok := memberWB(t, path, WB(1)); !ok || w != path {
		t.Fatal("class member must witness itself")
	}
}

func TestCandidatesRejectConstants(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on constants")
		}
	}()
	Candidates(gen.MusicWDPT("x", "y"), Options{}, func(*core.PatternTree) bool { return true })
}

func TestFigure2FamilyProperties(t *testing.T) {
	const n, k = 1, 2
	p1 := gen.Figure2P1(n, k)
	p2 := gen.Figure2P2(n, k)
	if InWB(p1, WB(k)) {
		t.Fatal("p1 contains a (k+1+n)-clique and must be outside WB(k)")
	}
	if !InWB(p2, WB(k)) {
		t.Fatal("p2 must be inside WB(k)")
	}
	if p2.Size() <= 0 || p1.Size() <= 0 {
		t.Fatal("sizes must be positive")
	}
	if !subsumes(t, p2, p1) {
		t.Fatal("p2 ⊑ p1 must hold (Theorem 15)")
	}
	if subsumes(t, p1, p2) {
		t.Fatal("p1 ⋢ p2: p1 is strictly more general")
	}
}

func TestFigure2SizeGrowth(t *testing.T) {
	// |p1| grows quadratically, |p2| exponentially (Theorem 15).
	const k = 2
	prevRatio := 0.0
	for n := 1; n <= 6; n++ {
		p1 := gen.Figure2P1(n, k)
		p2 := gen.Figure2P2(n, k)
		ratio := float64(p2.Size()) / float64(p1.Size())
		if n >= 3 && ratio <= prevRatio {
			t.Fatalf("n=%d: size ratio %0.2f did not grow (prev %0.2f)", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	// The e-atom count of p2's first leaf is exactly 2^n.
	p2 := gen.Figure2P2(5, k)
	leaf := p2.Root().Children()[0]
	eCount := 0
	for _, a := range leaf.Atoms() {
		if a.Rel == "e" {
			eCount++
		}
	}
	if eCount != 32 {
		t.Fatalf("e-atoms = %d, want 2^5 = 32", eCount)
	}
}

func TestApproximationAnswersSoundProperty(t *testing.T) {
	// For random small trees: every returned approximation candidate is in
	// the class, subsumed by p, and sound over random databases.
	for seed := int64(0); seed < 8; seed++ {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 1, MaxChildren: 1, AtomsPerNode: 2, FreshVarsPerNode: 2}, seed)
		if p.HasConstants() {
			continue
		}
		aps, err := ApproximateAll(context.Background(), p, WB(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ap := range aps {
			if !InWB(ap, WB(1)) {
				t.Fatalf("seed %d: candidate not in class", seed)
			}
			if !subsumes(t, ap, p) {
				t.Fatalf("seed %d: candidate not subsumed by p", seed)
			}
		}
	}
}

func TestHWPrimeClassApproximation(t *testing.T) {
	// With C(k) = HW'(k), the triangle tree is likewise outside WB'(1) and
	// its approximation collapses; both class choices must agree here since
	// every candidate is binary-relational.
	p := triangleTree()
	if InWB(p, WBPrime(1)) {
		t.Fatal("triangle not beta-acyclic")
	}
	ap, err := Approximate(context.Background(), p, WBPrime(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !InWB(ap, WBPrime(1)) || !subsumes(t, ap, p) {
		t.Fatal("HW'(1) approximation invariants violated")
	}
	apTW, err := Approximate(context.Background(), p, WB(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(t, ap, apTW) {
		t.Fatalf("TW(1) and HW'(1) approximations should coincide on binary patterns:\n%s\nvs\n%s", ap, apTW)
	}
}

func TestThetaStyleTreeIsInWBPrime2ButNotWBPrime1(t *testing.T) {
	// A clique + covering atom: g-HW'(1) fails (the clique subquery is
	// cyclic) but g-HW'(2) holds — separating the two hypertree-based
	// well-behaved classes.
	var atoms []cq.Atom
	vars := []cq.Term{cq.V("a"), cq.V("b"), cq.V("c")}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			atoms = append(atoms, cq.NewAtom("E", vars[i], vars[j]))
		}
	}
	atoms = append(atoms, cq.NewAtom("T", vars...), cq.NewAtom("V", cq.V("x")))
	p := core.MustNew(core.NodeSpec{Atoms: atoms}, []string{"x"})
	if InWB(p, WBPrime(1)) {
		t.Fatal("clique subquery is cyclic: not in g-HW'(1)")
	}
	if !InWB(p, WBPrime(2)) {
		t.Fatal("every subquery has ghw <= 2")
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

// subsumes is subsume.Subsumes under a background context, failing the
// test on error.
func subsumes(t *testing.T, p1, p2 *core.PatternTree) bool {
	t.Helper()
	ok, err := subsume.Subsumes(context.Background(), p1, p2, subsume.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// equivalent is subsume.Equivalent under a background context, failing the
// test on error.
func equivalent(t *testing.T, p1, p2 *core.PatternTree) bool {
	t.Helper()
	ok, err := subsume.Equivalent(context.Background(), p1, p2, subsume.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// memberWB is MemberWB under a background context, failing the test on
// error.
func memberWB(t *testing.T, p *core.PatternTree, c cq.Class) (*core.PatternTree, bool) {
	t.Helper()
	w, ok, err := MemberWB(context.Background(), p, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w, ok
}

// isApproximation is IsApproximation under a background context, failing
// the test on error.
func isApproximation(t *testing.T, cand, p *core.PatternTree, c cq.Class) bool {
	t.Helper()
	ok, err := IsApproximation(context.Background(), cand, p, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestMemberWBStopsOnCancelledContext: an already-cancelled context ends
// the membership search with the context error before any candidate is
// generated, at every parallelism level.
func TestMemberWBStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 8} {
		st := obs.NewStats()
		opts := Options{Parallelism: par, Subsume: subsume.Options{Stats: st}}
		if _, ok, err := MemberWB(ctx, gen.SymmetricCycleTree(4), WB(1), opts); ok || !errors.Is(err, context.Canceled) {
			t.Fatalf("P=%d: MemberWB = %v, %v; want false and context.Canceled", par, ok, err)
		}
		if n := st.Snapshot()["approx.candidates_generated"]; n != 0 {
			t.Errorf("P=%d: %d candidates generated after cancellation, want 0", par, n)
		}
	}
}
