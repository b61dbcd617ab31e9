package core_test

import (
	"testing"
	"testing/quick"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/gen"
)

func TestPruneNonProjecting(t *testing.T) {
	// Child 2's subtree mentions no free variable and is pruned; child 1
	// binds z (free) and stays; child 3 leads to a free variable through a
	// non-projecting intermediate node and stays entirely.
	p := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("r", cq.V("x"))},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("a", cq.V("x"), cq.V("z"))}},
			{Atoms: []cq.Atom{cq.NewAtom("b", cq.V("x"), cq.V("dead"))}},
			{
				Atoms: []cq.Atom{cq.NewAtom("c", cq.V("x"), cq.V("mid"))},
				Children: []core.NodeSpec{
					{Atoms: []cq.Atom{cq.NewAtom("d", cq.V("mid"), cq.V("w"))}},
				},
			},
		},
	}, []string{"x", "z", "w"})
	pruned := p.PruneNonProjecting()
	if pruned.NumNodes() != 4 {
		t.Fatalf("pruned nodes = %d, want 4 (dead branch removed):\n%s", pruned.NumNodes(), pruned)
	}
	// Idempotent and identity when nothing prunes.
	if pruned.PruneNonProjecting() != pruned {
		t.Fatal("second prune should return the same tree")
	}
}

func TestPruneKeepsRoot(t *testing.T) {
	// Boolean tree: no free variables at all; everything but the root is
	// non-projecting... but the root itself has no free variable either —
	// it must still be kept, and the (single) answer preserved.
	p := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("r", cq.V("u"))},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("s", cq.V("u"), cq.V("v"))}},
		},
	}, nil)
	pruned := p.PruneNonProjecting()
	if pruned.NumNodes() != 1 {
		t.Fatalf("pruned nodes = %d, want root only", pruned.NumNodes())
	}
	d := gen.RandomDatabase(gen.DBParams{Rels: []gen.RelSpec{{Name: "r", Arity: 1}, {Name: "s", Arity: 2}}}, 1)
	a1, a2 := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers, solve(t, pruned, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
	if len(a1) != len(a2) {
		t.Fatalf("answers changed: %v vs %v", a1, a2)
	}
}

// TestPrunePreservesAnswersProperty: p(D) and p_m(D) are unchanged by
// pruning on random trees and databases — the Lemma 1 normalization claim.
func TestPrunePreservesAnswersProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, MaxChildren: 2, FreeProb: 0.25}, seed)
		pruned := p.PruneNonProjecting()
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 7}, seed+99)
		if !sameAnswerSets(solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers, solve(t, pruned, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers) {
			t.Logf("seed %d: p(D) changed\noriginal:\n%s\npruned:\n%s", seed, p, pruned)
			return false
		}
		if !sameAnswerSets(solve(t, p, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers, solve(t, pruned, d, core.SolveOptions{Mode: core.ModeMaximal}).Answers) {
			t.Logf("seed %d: p_m(D) changed", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sameAnswerSets(a, b []cq.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	set := cq.NewMappingSet()
	for _, h := range a {
		set.Add(h)
	}
	for _, h := range b {
		if !set.Contains(h) {
			return false
		}
	}
	return true
}

// TestEvaluateWithMatchesEvaluate: the engine-parameterized enumeration
// agrees with the baseline on random instances, for every engine.
func TestEvaluateWithMatchesEvaluate(t *testing.T) {
	engines := []cqeval.Engine{cqeval.Naive(), cqeval.Yannakakis(), cqeval.Decomposition(), cqeval.Auto()}
	f := func(seed int64) bool {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, MaxChildren: 2}, seed)
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 7}, seed+5)
		want := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
		for _, eng := range engines {
			if !sameAnswerSets(want, solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate, Engine: eng}).Answers) {
				t.Logf("seed %d engine %s disagrees", seed, eng.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateWithOnMusic(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	got := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate, Engine: cqeval.Auto()}).Answers
	if len(got) != 2 {
		t.Fatalf("answers = %v", got)
	}
}
