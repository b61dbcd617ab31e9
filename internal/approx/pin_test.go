package approx_test

import (
	"context"
	"fmt"
	"testing"

	"wdpt/internal/approx"
	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/subsume"
	"wdpt/internal/uwdpt"
)

// Output pins for the approximation procedures on the families of the E6,
// E7, E10, E11 and E13 experiments: the text of every returned tree, and
// the candidate and subsumption counters the call leaves on a fresh sink.
// The texts and the approx.* counts were computed with an all-pairs
// maximality filter, before cq.Frontier replaced it; a change to how the
// maximal candidates are selected must leave them unchanged. Only the
// subsume.* counts move with the number of pairs compared. The inner
// checks of ApproximateAll(TriangleWithPath(3)) were 18 728 all-pairs and
// are 624 on the frontier.

// pinCounts are the counters a pinned call records.
type pinCounts struct {
	generated, verified, quotientDBs, innerChecks int64
}

func countsOf(st *obs.Stats) pinCounts {
	return pinCounts{
		generated:   st.Get(obs.CtrApproxCandidates),
		verified:    st.Get(obs.CtrApproxVerified),
		quotientDBs: st.Get(obs.CtrQuotientDBs),
		innerChecks: st.Get(obs.CtrInnerChecks),
	}
}

type approxPin struct {
	name  string
	run   func(context.Context, approx.Options) ([]*core.PatternTree, error)
	trees []string
	pinCounts
}

// optionalTriangle is a tree whose only WB(1) candidates are pruned ones:
// root V(x), with an OPT child holding the free triangle
// E(x,y), E(y,z), E(z,x).
func optionalTriangle() *core.PatternTree {
	return core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("V", cq.V("x"))},
		Children: []core.NodeSpec{{Atoms: []cq.Atom{
			cq.NewAtom("E", cq.V("x"), cq.V("y")),
			cq.NewAtom("E", cq.V("y"), cq.V("z")),
			cq.NewAtom("E", cq.V("z"), cq.V("x")),
		}}},
	}, []string{"x", "y", "z"})
}

func all(p *core.PatternTree, prune bool) func(context.Context, approx.Options) ([]*core.PatternTree, error) {
	return func(ctx context.Context, opts approx.Options) ([]*core.PatternTree, error) {
		opts.Prune = prune
		return approx.ApproximateAll(ctx, p, approx.WB(1), opts)
	}
}

func first(p *core.PatternTree) func(context.Context, approx.Options) ([]*core.PatternTree, error) {
	return func(ctx context.Context, opts approx.Options) ([]*core.PatternTree, error) {
		ap, err := approx.Approximate(ctx, p, approx.WB(1), opts)
		return []*core.PatternTree{ap}, err
	}
}

func member(p *core.PatternTree) func(context.Context, approx.Options) ([]*core.PatternTree, error) {
	return func(ctx context.Context, opts approx.Options) ([]*core.PatternTree, error) {
		w, ok, err := approx.MemberWB(ctx, p, approx.WB(1), opts)
		if !ok {
			return nil, err
		}
		return []*core.PatternTree{w}, err
	}
}

const (
	triCollapse    = "Ans(x):\n{E(?a, ?b), E(?b, ?b), E(?b, ?a), E(?a, ?x)}"
	triCollapse1   = "Ans(x):\n{E(?a, ?b), E(?b, ?b), E(?b, ?a), E(?a, ?p0), E(?p0, ?x)}"
	triCollapse2   = "Ans(x):\n{E(?a, ?b), E(?b, ?b), E(?b, ?a), E(?a, ?p0), E(?p0, ?p1), E(?p1, ?x)}"
	triCollapse3   = "Ans(x):\n{E(?a, ?b), E(?b, ?b), E(?b, ?a), E(?a, ?p0), E(?p0, ?p1), E(?p1, ?p2), E(?p2, ?x)}"
	triCollapse4   = "Ans(x):\n{E(?a, ?b), E(?b, ?b), E(?b, ?a), E(?a, ?p0), E(?p0, ?p1), E(?p1, ?p2), E(?p2, ?p3), E(?p3, ?x)}"
	cycleLoop      = "Ans(x):\n{V(?x), E(?c0, ?c0)}"
	cycleSymmetric = "Ans(x):\n{V(?x), E(?c0, ?c1), E(?c1, ?c0)}"
)

var approxPins = []approxPin{
	// E7: ApproximateAll and Approximate on the triangle with a pendant
	// path. The tree is a single node, so Prune adds no candidates.
	{"E7/all/l0", all(gen.TriangleWithPath(0), false), []string{triCollapse}, pinCounts{15, 11, 24, 24}},
	{"E7/all/l0/prune", all(gen.TriangleWithPath(0), true), []string{triCollapse}, pinCounts{15, 11, 24, 24}},
	{"E7/all/l1", all(gen.TriangleWithPath(1), false), []string{triCollapse1}, pinCounts{52, 32, 67, 67}},
	{"E7/all/l1/prune", all(gen.TriangleWithPath(1), true), []string{triCollapse1}, pinCounts{52, 32, 67, 67}},
	{"E7/all/l2", all(gen.TriangleWithPath(2), false), []string{triCollapse2}, pinCounts{203, 98, 201, 201}},
	{"E7/all/l3", all(gen.TriangleWithPath(3), false), []string{triCollapse3}, pinCounts{877, 309, 624, 624}},
	// l = 4 took 22 s all-pairs; its text and approx.* counts are from
	// that run.
	{"E7/all/l4", all(gen.TriangleWithPath(4), false), []string{triCollapse4}, pinCounts{4140, 998, 2003, 2003}},
	{"E7/first/l0", first(gen.TriangleWithPath(0)), []string{triCollapse}, pinCounts{15, 11, 24, 24}},
	{"E7/first/l1", first(gen.TriangleWithPath(1)), []string{triCollapse1}, pinCounts{52, 32, 67, 67}},
	{"E7/first/l2", first(gen.TriangleWithPath(2)), []string{triCollapse2}, pinCounts{203, 98, 201, 201}},
	// E10: the directed 4-cycle, and its neighbours. C2 is in WB(1)
	// already and is its own approximation.
	{"E10/first/c4", first(gen.DirectedCycleTree(4)), []string{cycleSymmetric}, pinCounts{52, 31, 70, 70}},
	{"E10/all/c2", all(gen.DirectedCycleTree(2), false), []string{cycleSymmetric}, pinCounts{0, 0, 0, 0}},
	{"E10/all/c3", all(gen.DirectedCycleTree(3), false), []string{cycleLoop}, pinCounts{15, 11, 23, 23}},
	{"E10/all/c4", all(gen.DirectedCycleTree(4), false), []string{cycleSymmetric}, pinCounts{52, 31, 70, 70}},
	{"E10/all/c4/prune", all(gen.DirectedCycleTree(4), true), []string{cycleSymmetric}, pinCounts{52, 31, 70, 70}},
	{"E10/all/c5", all(gen.DirectedCycleTree(5), false), []string{cycleLoop}, pinCounts{203, 87, 176, 176}},
	// E6 and E13: MemberWB on symmetric cycles; even ones fold onto an
	// edge, odd ones have no witness.
	{"E6/member/c3", member(gen.SymmetricCycleTree(3)), nil, pinCounts{15, 11, 11, 11}},
	{"E6/member/c4", member(gen.SymmetricCycleTree(4)), []string{cycleSymmetric}, pinCounts{42, 27, 28, 28}},
	{"E6/member/c5", member(gen.SymmetricCycleTree(5)), nil, pinCounts{203, 87, 87, 87}},
	{"E13/member/c6", member(gen.SymmetricCycleTree(6)), []string{cycleSymmetric}, pinCounts{623, 213, 214, 214}},
	// Rooted-subtree candidates: only a pruned tree is in WB(1).
	{"prune/off", all(optionalTriangle(), false), nil, pinCounts{1, 0, 0, 0}},
	{"prune/on", all(optionalTriangle(), true), []string{"Ans(x):\n{V(?x)}"}, pinCounts{2, 1, 1, 1}},
}

func TestApproximationOutputPins(t *testing.T) {
	for _, pin := range approxPins {
		t.Run(pin.name, func(t *testing.T) {
			st := obs.NewStats()
			trees, err := pin.run(context.Background(), approx.Options{Subsume: subsume.Options{Stats: st}})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(trees))
			for i, tr := range trees {
				got[i] = tr.String()
			}
			if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", pin.trees) {
				t.Errorf("trees %q, want %q", got, pin.trees)
			}
			if c := countsOf(st); c != pin.pinCounts {
				t.Errorf("counters {generated verified quotient_databases inner_checks} = %v, want %v", c, pin.pinCounts)
			}
		})
	}
}

// TestMemberWBWitnessPinnedInParallel: the parallel search returns the
// sequential witness; its counters may overshoot, so only the text is
// compared.
func TestMemberWBWitnessPinnedInParallel(t *testing.T) {
	for _, m := range []int{4, 5, 6} {
		w, ok, err := approx.MemberWB(context.Background(), gen.SymmetricCycleTree(m), approx.WB(1), approx.Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if want := m%2 == 0; ok != want {
			t.Fatalf("C%d: member = %v, want %v", m, ok, want)
		}
		if ok && w.String() != cycleSymmetric {
			t.Errorf("C%d: witness %q, want %q", m, w.String(), cycleSymmetric)
		}
	}
}

// TestApproximateUWBOutputPin pins E11's UWB(1)-approximation of the
// directed triangle united with a two-edge path.
func TestApproximateUWBOutputPin(t *testing.T) {
	u := uwdpt.MustNew(gen.DirectedCycleTree(3), gen.PathWDPT(2))
	qs, err := uwdpt.ApproximateUWB(u, cq.TW(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(qs))
	for i, q := range qs {
		got[i] = q.String()
	}
	want := []string{"Ans(x) <- V(?x), E(?c0, ?c0)", "Ans(y0) <- E(?y0, ?y1)"}
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Errorf("ApproximateUWB = %q, want %q", got, want)
	}
}
