package approx

import (
	"context"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/gen"
)

func TestOptimizeTractableWitness(t *testing.T) {
	// The symmetric 4-cycle tree is in M(WB(1)): the optimizer must find a
	// witness and answer PARTIAL-EVAL / MAX-EVAL identically to the
	// original on concrete databases.
	p := gen.SymmetricCycleTree(4)
	o := optimize(t, p)
	if !o.Tractable() {
		t.Fatal("expected a tractable witness for the even cycle")
	}
	if !InWB(o.Witness(), WB(1)) {
		t.Fatal("witness not globally tractable")
	}
	eng := cqeval.Auto()
	for seed := int64(0); seed < 6; seed++ {
		d := gen.RandomDatabase(gen.DBParams{
			DomainSize:   3,
			TuplesPerRel: 8,
			Rels:         []gen.RelSpec{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
		}, seed)
		for _, h := range []cq.Mapping{{}, {"x": "0"}, {"x": "1"}, {"x": "9"}} {
			if got, want := solve(t, o, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds, solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds; got != want {
				t.Fatalf("seed %d: PartialEval(%v) = %v via witness, %v direct", seed, h, got, want)
			}
			if got, want := solve(t, o, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds, solve(t, p, d, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds; got != want {
				t.Fatalf("seed %d: MaxEval(%v) = %v via witness, %v direct", seed, h, got, want)
			}
		}
	}
}

func TestOptimizeNonMemberFallsBack(t *testing.T) {
	p := gen.SymmetricCycleTree(3) // odd: not in M(WB(1))
	o := optimize(t, p)
	if o.Tractable() {
		t.Fatal("odd cycle must have no WB(1) witness")
	}
	eng := cqeval.Auto()
	d := gen.RandomDatabase(gen.DBParams{
		Rels: []gen.RelSpec{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
	}, 1)
	h := cq.Mapping{}
	if solve(t, o, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds != solve(t, p, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds {
		t.Fatal("fallback disagrees with the original tree")
	}
}

func TestOptimizeWithConstants(t *testing.T) {
	// Trees with constants skip the membership machinery but may still be
	// syntactically tractable.
	p := gen.MusicWDPT("x", "y", "z", "zp")
	o := optimize(t, p)
	if !o.Tractable() {
		t.Fatal("the music tree is syntactically in WB(1)")
	}
	eng := cqeval.Auto()
	d := gen.MusicDatabase()
	if !solve(t, o, d, core.SolveOptions{Mode: core.ModePartial, Mapping: cq.Mapping{"y": "Caribou"}, Engine: eng}).Holds {
		t.Fatal("partial answer lost")
	}
	if !solve(t, o, d, core.SolveOptions{Mode: core.ModeMax, Mapping: cq.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}, Engine: eng}).Holds {
		t.Fatal("maximal answer lost")
	}
}

func TestOptimizeWitnessIsPruned(t *testing.T) {
	// A member tree with a dead (non-projecting) optional branch: the
	// witness must come back without it.
	p := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("E", cq.V("y"), cq.V("dead"))}},
		},
	}, []string{"x"})
	o := optimize(t, p)
	if !o.Tractable() {
		t.Fatal("tree is syntactically tractable")
	}
	if o.Witness().NumNodes() != 1 {
		t.Fatalf("witness should be pruned to the root, got %d nodes", o.Witness().NumNodes())
	}
}

// optimize is Optimize for WB(1) under a background context, failing the
// test on error.
func optimize(t *testing.T, p *core.PatternTree) *Optimized {
	t.Helper()
	o, err := Optimize(context.Background(), p, WB(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}
