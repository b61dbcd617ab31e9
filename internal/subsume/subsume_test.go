package subsume

import (
	"context"
	"errors"
	"testing"
	"time"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

func TestSubsumptionReflexive(t *testing.T) {
	trees := []*core.PatternTree{
		gen.MusicWDPT("x", "y", "z", "zp"),
		gen.PathWDPT(2),
		gen.StarWDPT(2),
	}
	for i, p := range trees {
		if !subsumes(t, p, p, Options{}) {
			t.Fatalf("tree %d: p ⊑ p must hold", i)
		}
	}
}

func TestSubsumptionMusicPruned(t *testing.T) {
	full := gen.MusicWDPT("x", "y", "z", "zp")
	rootOnly := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{
			cq.NewAtom("recorded_by", cq.V("x"), cq.V("y")),
			cq.NewAtom("published", cq.V("x"), cq.C("after_2010")),
		},
	}, []string{"x", "y"})
	if !subsumes(t, rootOnly, full, Options{}) {
		t.Fatal("root-only tree should be subsumed by the full tree")
	}
	if subsumes(t, full, rootOnly, Options{}) {
		t.Fatal("full tree answers bind z and cannot be subsumed by root-only")
	}
	if equivalent(t, full, rootOnly, Options{}) {
		t.Fatal("not subsumption-equivalent")
	}
}

func TestCounterExampleWitness(t *testing.T) {
	full := gen.MusicWDPT("x", "y", "z", "zp")
	rootOnly := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{
			cq.NewAtom("recorded_by", cq.V("x"), cq.V("y")),
			cq.NewAtom("published", cq.V("x"), cq.C("after_2010")),
		},
	}, []string{"x", "y"})
	d, h, found, err := CounterExample(context.Background(), full, rootOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("expected a counterexample")
	}
	// Verify the witness: h ∈ full(D), and no answer of rootOnly subsumes h.
	inP1 := false
	for _, a := range solve(t, full, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
		if a.Equal(h) {
			inP1 = true
		}
	}
	if !inP1 {
		t.Fatalf("witness mapping %v is not an answer of p1 over\n%s", h, d)
	}
	for _, g := range solve(t, rootOnly, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
		if h.SubsumedBy(g) {
			t.Fatalf("witness %v is subsumed by %v — not a counterexample", h, g)
		}
	}
}

// TestSubsumptionMatchesCQContainment: for single-node WDPTs (CQs),
// subsumption coincides with CQ containment because all answers are total
// on the free variables.
func TestSubsumptionMatchesCQContainment(t *testing.T) {
	cases := []struct{ q1, q2 *cq.CQ }{
		{
			cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y")), cq.NewAtom("E", cq.V("y"), cq.V("z"))}),
			cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))}),
		},
		{
			cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("x"))}),
			cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))}),
		},
		{
			cq.MustNew([]string{"u"}, []cq.Atom{cq.NewAtom("E", cq.V("u"), cq.V("v"))}),
			cq.MustNew([]string{"a"}, []cq.Atom{cq.NewAtom("E", cq.V("a"), cq.V("b")), cq.NewAtom("E", cq.V("b"), cq.V("c"))}),
		},
	}
	for i, c := range cases {
		// Rename free variables so positional containment matches by name.
		want := cq.ContainedIn(c.q1, c.q2)
		p1, p2 := core.FromCQ(c.q1), core.FromCQ(renameFreeLike(c.q2, c.q1))
		if got := subsumes(t, p1, p2, Options{}); got != want {
			t.Fatalf("case %d: Subsumes = %v, containment = %v", i, got, want)
		}
	}
}

// renameFreeLike renames the free variables of q to match ref positionally
// (subsumption compares variables by name, containment by position).
func renameFreeLike(q, ref *cq.CQ) *cq.CQ {
	ren := make(map[string]string)
	for i, x := range q.Free() {
		ren[x] = ref.Free()[i]
	}
	// Avoid capturing existential variables that share names with targets.
	var atoms []cq.Atom
	for _, a := range q.Atoms() {
		args := make([]cq.Term, len(a.Args))
		for j, tm := range a.Args {
			if tm.IsVar() {
				if to, ok := ren[tm.Value()]; ok {
					args[j] = cq.V(to)
					continue
				}
				args[j] = cq.V("e_" + tm.Value())
				continue
			}
			args[j] = tm
		}
		atoms = append(atoms, cq.NewAtom(a.Rel, args...))
	}
	free := make([]string, len(q.Free()))
	copy(free, ref.Free()[:len(q.Free())])
	return cq.MustNew(free, atoms)
}

// TestInnerChecksAgree: the PARTIAL-EVAL inner check (Theorem 11 path) and
// the enumeration inner check decide subsumption identically.
func TestInnerChecksAgree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p1 := gen.RandomWDPT(gen.TreeParams{MaxDepth: 1, MaxChildren: 1, AtomsPerNode: 1, FreshVarsPerNode: 1}, seed)
		p2 := gen.RandomWDPT(gen.TreeParams{MaxDepth: 1, MaxChildren: 1, AtomsPerNode: 1, FreshVarsPerNode: 1}, seed+50)
		fast := subsumes(t, p1, p2, Options{})
		slow := subsumes(t, p1, p2, Options{InnerEnumerate: true})
		if fast != slow {
			t.Fatalf("seed %d: inner checks disagree: fast=%v slow=%v\np1:\n%s\np2:\n%s", seed, fast, slow, p1, p2)
		}
	}
}

// TestSubsumptionSoundOnRandomDatabases: whenever Subsumes(p1, p2) holds,
// every answer of p1 over random databases is subsumed by an answer of p2.
func TestSubsumptionSoundOnRandomDatabases(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p1 := gen.RandomWDPT(gen.TreeParams{MaxDepth: 1, MaxChildren: 1, AtomsPerNode: 1, FreshVarsPerNode: 1}, seed)
		p2 := gen.RandomWDPT(gen.TreeParams{MaxDepth: 1, MaxChildren: 1, AtomsPerNode: 1, FreshVarsPerNode: 1}, seed+31)
		holds := subsumes(t, p1, p2, Options{})
		for dbSeed := int64(0); dbSeed < 4; dbSeed++ {
			d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 6}, dbSeed)
			a2 := solve(t, p2, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
			for _, h := range solve(t, p1, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
				subsumed := false
				for _, g := range a2 {
					if h.SubsumedBy(g) {
						subsumed = true
						break
					}
				}
				if holds && !subsumed {
					t.Fatalf("seed %d: Subsumes holds but answer %v unsubsumed on db seed %d\np1:\n%s\np2:\n%s",
						seed, h, dbSeed, p1, p2)
				}
			}
		}
	}
}

// TestProposition5: subsumption-equivalent trees have identical maximal
// answers over random databases.
func TestProposition5(t *testing.T) {
	// A pair of syntactically different but subsumption-equivalent trees:
	// the music tree and itself with children swapped.
	p1 := gen.MusicWDPT("x", "y", "z", "zp")
	p2 := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{
			cq.NewAtom("recorded_by", cq.V("x"), cq.V("y")),
			cq.NewAtom("published", cq.V("x"), cq.C("after_2010")),
		},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("formed_in", cq.V("y"), cq.V("zp"))}},
			{Atoms: []cq.Atom{cq.NewAtom("rating", cq.V("x"), cq.V("z"))}},
		},
	}, []string{"x", "y", "z", "zp"})
	if !equivalent(t, p1, p2, Options{}) {
		t.Fatal("child order must not matter for subsumption-equivalence")
	}
	if ok, err := MaxEquivalent(context.Background(), p1, p2, Options{}); err != nil || !ok {
		t.Fatal("MaxEquivalent must agree")
	}
	for seed := int64(0); seed < 6; seed++ {
		d := gen.MusicDatabaseLarge(6, 2, seed)
		m1 := make(map[string]bool)
		for _, h := range solve(t, p1, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers {
			m1[h.Key()] = true
		}
		m2 := solve(t, p2, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers
		if len(m1) != len(m2) {
			t.Fatalf("seed %d: maximal answer counts differ: %d vs %d", seed, len(m1), len(m2))
		}
		for _, h := range m2 {
			if !m1[h.Key()] {
				t.Fatalf("seed %d: maximal answer %v missing from p1", seed, h)
			}
		}
	}
}

// TestSubsumptionDetectsStrictlyMoreOptional: adding an optional child makes
// the tree subsume the original but not vice versa (when the child can
// match).
func TestSubsumptionDetectsStrictlyMoreOptional(t *testing.T) {
	base := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))},
	}, []string{"x", "y"})
	extended := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("E", cq.V("y"), cq.V("w"))}},
		},
	}, []string{"x", "y", "w"})
	if !subsumes(t, base, extended, Options{}) {
		t.Fatal("base ⊑ extended should hold")
	}
	if subsumes(t, extended, base, Options{}) {
		t.Fatal("extended ⋢ base: answers binding w are not subsumed")
	}
}

// TestSubsumptionWithConstantsProperty: on random trees THAT MENTION
// CONSTANTS, a positive subsumption answer is sound on random databases,
// and a negative answer comes with a verifiable counterexample. This
// exercises the block-onto-constant collapses of the small-model space.
func TestSubsumptionWithConstantsProperty(t *testing.T) {
	params := gen.TreeParams{MaxDepth: 1, MaxChildren: 1, AtomsPerNode: 1, FreshVarsPerNode: 1, ConstProb: 0.3}
	for seed := int64(0); seed < 14; seed++ {
		p1 := gen.RandomWDPT(params, seed)
		p2 := gen.RandomWDPT(params, seed+77)
		d, h, refuted, err := CounterExample(context.Background(), p1, p2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if refuted {
			// Verify the witness end to end.
			found := false
			for _, a := range solve(t, p1, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
				if a.Equal(h) {
					found = true
				}
			}
			if !found {
				t.Fatalf("seed %d: witness %v is not an answer of p1 over\n%s", seed, h, d)
			}
			for _, g := range solve(t, p2, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
				if h.SubsumedBy(g) {
					t.Fatalf("seed %d: witness %v subsumed by %v", seed, h, g)
				}
			}
			continue
		}
		// Positive: spot-check soundness on random databases (which also
		// contain the constant pool used by the generator).
		for dbSeed := int64(0); dbSeed < 3; dbSeed++ {
			d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 7}, dbSeed)
			a2 := solve(t, p2, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
			for _, a := range solve(t, p1, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
				ok := false
				for _, g := range a2 {
					if a.SubsumedBy(g) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("seed %d: Subsumes held but answer %v unsubsumed\np1:\n%s\np2:\n%s\ndb:\n%s",
						seed, a, p1, p2, d)
				}
			}
		}
	}
}

// TestSubsumptionTransitivity: ⊑ is transitive on a chain of pruned trees.
func TestSubsumptionTransitivity(t *testing.T) {
	full := gen.MusicWDPT("x", "y", "z", "zp")
	mid := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{
			cq.NewAtom("recorded_by", cq.V("x"), cq.V("y")),
			cq.NewAtom("published", cq.V("x"), cq.C("after_2010")),
		},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("rating", cq.V("x"), cq.V("z"))}},
		},
	}, []string{"x", "y", "z"})
	rootOnly := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{
			cq.NewAtom("recorded_by", cq.V("x"), cq.V("y")),
			cq.NewAtom("published", cq.V("x"), cq.C("after_2010")),
		},
	}, []string{"x", "y"})
	if !subsumes(t, rootOnly, mid, Options{}) || !subsumes(t, mid, full, Options{}) {
		t.Fatal("chain links should hold")
	}
	if !subsumes(t, rootOnly, full, Options{}) {
		t.Fatal("transitivity violated")
	}
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

// subsumes is Subsumes under a background context, failing the test on
// error.
func subsumes(t *testing.T, p1, p2 *core.PatternTree, opts Options) bool {
	t.Helper()
	ok, err := Subsumes(context.Background(), p1, p2, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// equivalent is Equivalent under a background context, failing the test on
// error.
func equivalent(t *testing.T, p1, p2 *core.PatternTree, opts Options) bool {
	t.Helper()
	ok, err := Equivalent(context.Background(), p1, p2, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestSubsumesStopsAtDeadline: the Π₂ᴾ search can be stopped — a 1 ms
// deadline on the width-4 star with the enumeration inner check ends it with
// a deadline trip instead of running to completion.
func TestSubsumesStopsAtDeadline(t *testing.T) {
	p := gen.StarWDPT(4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	ok, err := Subsumes(ctx, p, p, Options{InnerEnumerate: true})
	if ok || !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("Subsumes = %v, %v; want false and a guard.ErrDeadline trip", ok, err)
	}
}

// TestFrozenConstantsAvoidTreeConstants: a variable is never frozen to a
// constant either tree mentions. R(?x) ⋢ R(?x) ∧ R("•x") — over {R(a)} the
// left tree answers {x ↦ a} and the right one has no answer — and
// R(?x) ∧ S("•x") ⋢ R(?x) ∧ S(?x), over {R(a), S("•x")}.
func TestFrozenConstantsAvoidTreeConstants(t *testing.T) {
	r := func(tm cq.Term) cq.Atom { return cq.NewAtom("R", tm) }
	s := func(tm cq.Term) cq.Atom { return cq.NewAtom("S", tm) }
	x, bullet := cq.V("x"), cq.C("•x")
	node := func(atoms ...cq.Atom) *core.PatternTree {
		return core.MustNew(core.NodeSpec{Atoms: atoms}, []string{"x"})
	}
	cases := []struct{ p1, p2 *core.PatternTree }{
		{node(r(x)), node(r(x), r(bullet))},
		{node(r(x), s(bullet)), node(r(x), s(x))},
	}
	for i, c := range cases {
		d, h, found, err := CounterExample(context.Background(), c.p1, c.p2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("case %d: p1 ⊑ p2 reported, want a refutation\np1:\n%s\np2:\n%s", i, c.p1, c.p2)
		}
		for _, g := range solve(t, c.p2, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers {
			if h.SubsumedBy(g) {
				t.Fatalf("case %d: witness %v subsumed by %v over\n%s", i, h, g, d)
			}
		}
	}
}

// TestPartialEvalWorkIsCounted: the PARTIAL-EVAL inner checks count their
// evaluation work on Options.Stats, as the enumeration inner check does.
// On p ⊑ p for the width-4 star each of the 16 checks is one
// satisfiability test of the default engine; no answer of p1 is ever
// enumerated, so every count outside subsume.* is the inner checks' own.
func TestPartialEvalWorkIsCounted(t *testing.T) {
	st := obs.NewStats()
	p := gen.StarWDPT(4)
	if !subsumes(t, p, p, Options{Stats: st}) {
		t.Fatal("p ⊑ p must hold")
	}
	if got, want := st.Get(obs.CtrSatisfiableCalls), st.Get(obs.CtrInnerChecks); got != want || want != 16 {
		t.Errorf("%s = %d over %d inner checks, want one per check (16); snapshot %v",
			obs.CtrSatisfiableCalls, got, want, st.Snapshot())
	}
}

// TestStarSubsumptionCounts: p ⊑ p on the width-w star does one frozen
// canonical database and one inner check per rooted subtree, 2^w of each —
// the coNP guess of Theorem 11. The enumeration inner check, exponential in
// w itself, is pinned on E5's widths only.
func TestStarSubsumptionCounts(t *testing.T) {
	for w := 2; w <= 6; w++ {
		p := gen.StarWDPT(w)
		for _, enumerate := range []bool{false, true} {
			if enumerate && w > 4 {
				continue
			}
			st := obs.NewStats()
			if !subsumes(t, p, p, Options{InnerEnumerate: enumerate, Stats: st}) {
				t.Fatalf("width %d: p ⊑ p must hold", w)
			}
			want := int64(1) << w
			if got := st.Get(obs.CtrQuotientDBs); got != want {
				t.Errorf("width %d, InnerEnumerate=%v: %s = %d, want %d", w, enumerate, obs.CtrQuotientDBs, got, want)
			}
			if got := st.Get(obs.CtrInnerChecks); got != want {
				t.Errorf("width %d, InnerEnumerate=%v: %s = %d, want %d", w, enumerate, obs.CtrInnerChecks, got, want)
			}
		}
	}
}
