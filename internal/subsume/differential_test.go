package subsume_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/guard"
	"wdpt/internal/subsume"
	"wdpt/internal/uwdpt"
)

// refDeadline bounds one run of the quotient reference, which is
// exponential in the number of variables of the left-hand side. A pair
// whose reference run exceeds it is counted and logged, not compared.
const refDeadline = time.Second

// solver is a pattern tree or a union of them.
type solver interface {
	Solve(ctx context.Context, d *db.Database, opts core.SolveOptions) (core.Result, error)
}

// pairFamily draws tree pairs: p1 from params1 with the pair's seed, p2
// from params2 with the seed plus offset. With offset 0 and equal
// structure parameters both trees have the same atoms and differ only in
// their free variables.
type pairFamily struct {
	name             string
	params1, params2 gen.TreeParams
	offset           int64
}

var (
	small   = gen.TreeParams{MaxDepth: 2, MaxChildren: 1, AtomsPerNode: 2, FreshVarsPerNode: 1}
	wide    = gen.TreeParams{MaxDepth: 1, MaxChildren: 2, AtomsPerNode: 1, FreshVarsPerNode: 2}
	deep    = gen.TreeParams{MaxDepth: 2, MaxChildren: 2, AtomsPerNode: 1, FreshVarsPerNode: 1}
	edgeVoc = []gen.RelSpec{{Name: "E", Arity: 2}}
)

// with returns tp with a free-variable probability, a constant
// probability and a vocabulary (nil keeps the default E/2, T/3).
func with(tp gen.TreeParams, free, consts float64, rels []gen.RelSpec) gen.TreeParams {
	tp.FreeProb, tp.ConstProb, tp.Rels = free, consts, rels
	return tp
}

// treeFamilies cover independent trees, same-atom trees with different
// free variables (mostly positive pairs), constants, the E-only vocabulary
// and depth 2.
var treeFamilies = []pairFamily{
	{"independent", with(small, 0.5, 0, nil), with(small, 0.5, 0, nil), 500},
	{"independent/consts", with(small, 0.5, 0.3, nil), with(small, 0.5, 0.3, nil), 500},
	{"independent/E-only", with(deep, 0.5, 0, edgeVoc), with(deep, 0.5, 0, edgeVoc), 500},
	{"independent/E-only/consts", with(wide, 0.5, 0.25, edgeVoc), with(wide, 0.5, 0.25, edgeVoc), 500},
	{"same-atoms", with(small, 0.3, 0, nil), with(small, 0.6, 0, nil), 0},
	{"same-atoms/consts", with(small, 0.6, 0.3, nil), with(small, 0.3, 0.3, nil), 0},
	{"same-atoms/E-only", with(deep, 0.3, 0, edgeVoc), with(deep, 0.6, 0, edgeVoc), 0},
	{"truncated/E-only", with(deep, 0.5, 0, edgeVoc), with(gen.TreeParams{MaxDepth: 1, MaxChildren: 2, AtomsPerNode: 1, FreshVarsPerNode: 1}, 0.5, 0, edgeVoc), 0},
}

// pairsPerFamily × len(treeFamilies) tree pairs are drawn; at least
// minTreePairs of them must finish within refDeadline.
const (
	pairsPerFamily = 55
	minTreePairs   = 400
)

// treePair is one drawn left- and right-hand side.
type treePair struct {
	label  string
	p1, p2 *core.PatternTree
}

func drawTreePairs() []treePair {
	var out []treePair
	for _, f := range treeFamilies {
		for s := int64(1); s <= pairsPerFamily; s++ {
			out = append(out, treePair{
				label: fmt.Sprintf("%s seed %d", f.name, s),
				p1:    gen.RandomWDPT(f.params1, s),
				p2:    gen.RandomWDPT(f.params2, s+f.offset),
			})
		}
	}
	return out
}

// isDeadline reports whether err is a deadline trip.
func isDeadline(err error) bool {
	return errors.Is(err, guard.ErrDeadline) || errors.Is(err, context.DeadlineExceeded)
}

// compareTreePair decides p1 ⊑ p2 with the quotient reference and with
// CounterExample under each of the inner checks given, and checks every
// refutation's witness. skipped reports a reference run that exceeded
// refDeadline.
func compareTreePair(p1, p2 *core.PatternTree, innerEnumerate ...bool) (refuted, skipped bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), refDeadline)
	_, _, want, rerr := subsume.ReferenceCounterExample(ctx, p1, p2, subsume.Options{})
	cancel()
	if isDeadline(rerr) {
		return false, true, nil
	}
	if rerr != nil {
		return false, false, fmt.Errorf("reference: %v", rerr)
	}
	for _, enumerate := range innerEnumerate {
		d, h, got, err := subsume.CounterExample(context.Background(), p1, p2, subsume.Options{InnerEnumerate: enumerate})
		if err != nil {
			return false, false, err
		}
		if got != want {
			return false, false, fmt.Errorf("InnerEnumerate=%v: refuted %v, reference refuted %v", enumerate, got, want)
		}
		if got {
			if err := checkWitness(d, h, p1, p2); err != nil {
				return false, false, fmt.Errorf("InnerEnumerate=%v: %v", enumerate, err)
			}
		}
	}
	return want, false, nil
}

// checkWitness confirms a refutation of p1 ⊑ p2: h is an answer of p1
// over d, and no answer of p2 over d extends h.
func checkWitness(d *db.Database, h cq.Mapping, p1, p2 solver) error {
	ctx := context.Background()
	a1, err := p1.Solve(ctx, d, core.SolveOptions{Mode: core.ModeEnumerate})
	if err != nil {
		return err
	}
	in := false
	for _, a := range a1.Answers {
		in = in || a.Equal(h)
	}
	if !in {
		return fmt.Errorf("witness %v is not an answer of p1 over\n%s", h, d)
	}
	a2, err := p2.Solve(ctx, d, core.SolveOptions{Mode: core.ModeEnumerate})
	if err != nil {
		return err
	}
	for _, g := range a2.Answers {
		if h.SubsumedBy(g) {
			return fmt.Errorf("witness %v is subsumed by the answer %v of p2 over\n%s", h, g, d)
		}
	}
	return nil
}

// TestCounterExampleMatchesReference: on seeded random tree pairs,
// CounterExample — with either inner check — refutes p1 ⊑ p2 exactly when
// the quotient reference does, and every refutation's witness holds up.
func TestCounterExampleMatchesReference(t *testing.T) {
	var compared, refuted int
	var skipped []string
	for _, c := range drawTreePairs() {
		ref, skip, err := compareTreePair(c.p1, c.p2, false, true)
		if err != nil {
			t.Fatalf("%s: %v\np1:\n%s\np2:\n%s", c.label, err, c.p1, c.p2)
		}
		if skip {
			skipped = append(skipped, c.label)
			continue
		}
		compared++
		if ref {
			refuted++
		}
	}
	t.Logf("%d tree pairs compared (%d refuted, %d hold); %d skipped past the %v reference deadline: %v",
		compared, refuted, compared-refuted, len(skipped), refDeadline, skipped)
	if compared < minTreePairs {
		t.Fatalf("only %d tree pairs compared, want at least %d", compared, minTreePairs)
	}
	if refuted == 0 || refuted == compared {
		t.Fatalf("%d of %d pairs refuted: the pairs do not exercise both verdicts", refuted, compared)
	}
}

// referenceUnionSubsumes is the quotient-search decision of φ1 ⊑ φ2: for
// every member of φ1, every rooted subtree and every quotient database D of
// it, every answer of φ1 over D must be a partial answer of φ2
// (⋃-PARTIAL-EVAL, Theorem 16).
func referenceUnionSubsumes(ctx context.Context, u1, u2 *uwdpt.Union) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	consts := subsume.ReferenceConstants(append(append([]*core.PatternTree(nil), u1.Trees()...), u2.Trees()...)...)
	eng := cqeval.Auto()
	holds := true
	var err error
	for _, p := range u1.Trees() {
		p.EnumerateSubtrees(func(s core.Subtree) bool {
			subsume.ReferenceQuotientDatabases(p.SubtreeAtoms(s), consts, nil, func(d *db.Database) bool {
				holds, err = referenceAnswersSubsumed(ctx, u1, u2, d, eng)
				return holds
			})
			return holds
		})
		if !holds {
			break
		}
	}
	return holds, err
}

// referenceAnswersSubsumed reports whether every answer of u1 over d is a
// partial answer of u2.
func referenceAnswersSubsumed(ctx context.Context, u1, u2 *uwdpt.Union, d *db.Database, eng cqeval.Engine) (bool, error) {
	all, err := u1.Solve(ctx, d, core.SolveOptions{Mode: core.ModeEnumerate})
	if err != nil {
		return false, err
	}
	for _, h := range all.Answers {
		res, err := u2.Solve(ctx, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng})
		if err != nil || !res.Holds {
			return false, err
		}
	}
	return true, nil
}

// unionPair is one drawn union subsumption instance.
type unionPair struct {
	label  string
	u1, u2 *uwdpt.Union
}

// minUnionPairs union pairs must finish within refDeadline.
const minUnionPairs = 50

// drawUnionPairs returns edge ∪ path(2) ⋢ edge, its converse, and random
// unions of one or two members on both sides, drawn from the E-only and
// constant families.
func drawUnionPairs() []unionPair {
	edge := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))}}, []string{"x"})
	out := []unionPair{
		{"edge ∪ path(2) ⊑ edge", uwdpt.MustNew(edge, gen.PathWDPT(2)), uwdpt.MustNew(edge)},
		{"edge ⊑ edge ∪ path(2)", uwdpt.MustNew(edge), uwdpt.MustNew(edge, gen.PathWDPT(2))},
	}
	members := func(tp gen.TreeParams, seed int64, n int) *uwdpt.Union {
		trees := make([]*core.PatternTree, n)
		for i := range trees {
			trees[i] = gen.RandomWDPT(tp, seed+int64(i)*1000)
		}
		return uwdpt.MustNew(trees...)
	}
	for _, f := range []pairFamily{treeFamilies[2], treeFamilies[1], treeFamilies[6], treeFamilies[5]} {
		for s := int64(1); s <= 15; s++ {
			out = append(out, unionPair{
				label: fmt.Sprintf("%s seed %d", f.name, s),
				u1:    members(f.params1, s, 1+int(s%2)),
				u2:    members(f.params2, s+f.offset, 1+int(s/2%2)),
			})
		}
	}
	return out
}

// TestUnionSubsumesMatchesReference: on seeded random union pairs,
// uwdpt.Subsumes decides φ1 ⊑ φ2 exactly as the quotient reference does.
func TestUnionSubsumesMatchesReference(t *testing.T) {
	var compared, refuted int
	var skipped []string
	for _, c := range drawUnionPairs() {
		ctx, cancel := context.WithTimeout(context.Background(), refDeadline)
		want, rerr := referenceUnionSubsumes(ctx, c.u1, c.u2)
		cancel()
		if isDeadline(rerr) {
			skipped = append(skipped, c.label)
			continue
		}
		if rerr != nil {
			t.Fatalf("%s: reference: %v", c.label, rerr)
		}
		for _, enumerate := range []bool{false, true} {
			got, err := uwdpt.Subsumes(context.Background(), c.u1, c.u2, subsume.Options{InnerEnumerate: enumerate})
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			if got != want {
				t.Fatalf("%s, InnerEnumerate=%v: Subsumes = %v, reference %v\nφ1: %v\nφ2: %v", c.label, enumerate, got, want, c.u1.Trees(), c.u2.Trees())
			}
		}
		compared++
		if !want {
			refuted++
		}
	}
	t.Logf("%d union pairs compared (%d refuted, %d hold); %d skipped past the %v reference deadline: %v",
		compared, refuted, compared-refuted, len(skipped), refDeadline, skipped)
	if compared < minUnionPairs {
		t.Fatalf("only %d union pairs compared, want at least %d", compared, minUnionPairs)
	}
	if refuted == 0 || refuted == compared {
		t.Fatalf("%d of %d union pairs refuted: the pairs do not exercise both verdicts", refuted, compared)
	}
}

// FuzzSubsumesReference: CounterExample, with the PARTIAL-EVAL inner check,
// agrees with the quotient reference on random tree pairs. The byte picks
// the constant probability (its low two bits, in tenths) and the
// vocabulary (bit 2: E-only, depth 2).
func FuzzSubsumesReference(f *testing.F) {
	f.Add(int64(1), int64(501), byte(0))
	f.Add(int64(7), int64(7), byte(3))
	f.Add(int64(12), int64(40), byte(6))
	f.Fuzz(func(t *testing.T, seed1, seed2 int64, b byte) {
		tp := with(small, 0.5, float64(b&3)/10, nil)
		if b&4 != 0 {
			tp = with(deep, 0.5, float64(b&3)/10, edgeVoc)
		}
		p1, p2 := gen.RandomWDPT(tp, seed1), gen.RandomWDPT(tp, seed2)
		_, skipped, err := compareTreePair(p1, p2, false)
		if err != nil {
			t.Fatalf("%v\np1:\n%s\np2:\n%s", err, p1, p2)
		}
		if skipped {
			t.Skipf("reference exceeded %v", refDeadline)
		}
	})
}
