package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
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

// introducesFree reports whether n mentions a free variable that its
// parent does not: the node set N of the proof of Lemma 1.
func introducesFree(n *core.Node, parent *core.Node, free map[string]bool) bool {
	parentVars := map[string]bool{}
	if parent != nil {
		for _, v := range parent.Vars() {
			parentVars[v] = true
		}
	}
	for _, v := range n.Vars() {
		if free[v] && !parentVars[v] {
			return true
		}
	}
	return false
}

// lemma1Nodes is the node count of p's Lemma 1 form, computed from the
// definition: the root plus every node whose subtree holds a node that
// introduces a free variable.
func lemma1Nodes(p *core.PatternTree) int {
	free := p.FreeSet()
	count := 1
	var walk func(n, parent *core.Node) bool
	walk = func(n, parent *core.Node) bool {
		keep := introducesFree(n, parent, free)
		for _, c := range n.Children() {
			if walk(c, n) {
				keep = true
			}
		}
		if keep && parent != nil {
			count++
		}
		return keep
	}
	walk(p.Root(), nil)
	return count
}

// lemma1Instance is the random tree and database of one tree seed and one
// database seed.
func lemma1Instance(treeSeed, dbSeed int64) (*core.PatternTree, *db.Database) {
	return gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, MaxChildren: 2, FreeProb: 0.25}, treeSeed),
		gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 7}, dbSeed)
}

// lemma1Case is a random tree on which Lemma 1 prunes at least one branch,
// with a seeded database.
type lemma1Case struct {
	seed int64
	p    *core.PatternTree
	d    *db.Database
}

// lemma1Cases returns the first n seeds whose random tree has a branch to
// prune.
func lemma1Cases(n int) []lemma1Case {
	var out []lemma1Case
	for seed := int64(1); len(out) < n; seed++ {
		p, d := lemma1Instance(seed, seed+99)
		if lemma1Nodes(p) < p.NumNodes() {
			out = append(out, lemma1Case{seed: seed, p: p, d: d})
		}
	}
	return out
}

// renderAnswers is the byte form of an answer list in the order given.
func renderAnswers(ms []cq.Mapping) string {
	keys := make([]string, len(ms))
	for i, h := range ms {
		keys[i] = h.Key()
	}
	return strings.Join(keys, "\n")
}

// decisionCandidates returns mappings to decide: the empty mapping, the
// first and last answers of the unpruned p(D), and perturbations of them
// that are mostly non-answers — a value changed, a variable dropped, an
// unbound free variable added, and a non-free variable added (which only a
// pruned branch may mention).
func decisionCandidates(p *core.PatternTree, answers []cq.Mapping) []cq.Mapping {
	out := []cq.Mapping{{}}
	bump := map[string]string{"0": "1", "1": "2", "2": "0"}
	var bound []string
	for _, v := range p.Vars() {
		if !p.FreeSet()[v] {
			bound = append(bound, v)
		}
	}
	for i, h := range answers {
		if i != 0 && i != len(answers)-1 {
			continue
		}
		out = append(out, h)
		dom := h.Domain()
		if len(dom) == 0 {
			continue
		}
		changed := h.Clone()
		changed[dom[0]] = bump[changed[dom[0]]]
		dropped := h.Clone()
		delete(dropped, dom[len(dom)-1])
		out = append(out, changed, dropped)
		for _, x := range p.Free() {
			if _, ok := h[x]; !ok {
				out = append(out, h.Union(cq.Mapping{x: "0"}))
				break
			}
		}
		if len(bound) > 0 {
			out = append(out, h.Union(cq.Mapping{bound[len(bound)-1]: "0"}))
		}
	}
	return out
}

// TestPruneMatchesLemma1: the tree Solve evaluates has exactly the nodes
// Lemma 1 keeps, and pruning it again changes nothing.
func TestPruneMatchesLemma1(t *testing.T) {
	for _, c := range lemma1Cases(200) {
		got := c.p.Lemma1()
		if want := lemma1Nodes(c.p); got.NumNodes() != want {
			t.Fatalf("seed %d: pruned form has %d nodes, Lemma 1 keeps %d\noriginal:\n%s\npruned:\n%s", c.seed, got.NumNodes(), want, c.p, got)
		}
		if got.Lemma1() != got {
			t.Fatalf("seed %d: the pruned form of the pruned form is another tree", c.seed)
		}
	}
}

// TestPrunePreservesAnswersProperty: Solve, which evaluates the Lemma 1
// form, agrees byte for byte with an evaluation of the tree as given — in
// every mode, at parallelism 1 and 8, with every engine — on 200 random
// trees that each have a branch to prune. This is the Lemma 1
// normalization claim.
func TestPrunePreservesAnswersProperty(t *testing.T) {
	for _, c := range lemma1Cases(200) {
		if err := checkLemma1Case(c.p, c.d); err != nil {
			t.Fatalf("seed %d: %v\ntree:\n%s", c.seed, err, c.p)
		}
	}
}

// allModes are the six Solve modes.
var allModes = []core.Mode{core.ModeEnumerate, core.ModeMaximal, core.ModeExact, core.ModeExactNaive, core.ModePartial, core.ModeMax}

// checkLemma1Case compares Solve with the unpruned evaluation of p over d
// in all six modes, at parallelism 1 and 8, with the default engine and
// every named one.
func checkLemma1Case(p *core.PatternTree, d *db.Database) error {
	engines := []cqeval.Engine{nil}
	for _, name := range engineNames {
		eng, err := cqeval.ByName(name)
		if err != nil {
			return err
		}
		engines = append(engines, eng)
	}
	ref, err := p.SolveUnpruned(context.Background(), d, core.SolveOptions{Mode: core.ModeEnumerate})
	if err != nil {
		return err
	}
	candidates := decisionCandidates(p, ref.Answers)
	for _, par := range []int{1, 8} {
		for _, eng := range engines {
			for _, mode := range allModes {
				if mode == core.ModeExactNaive && eng != nil {
					continue // it ignores the engine
				}
				hs := []cq.Mapping{nil}
				if mode != core.ModeEnumerate && mode != core.ModeMaximal {
					hs = candidates
				}
				for _, h := range hs {
					if err := compareUnpruned(p, d, core.SolveOptions{Mode: mode, Engine: eng, Parallelism: par, Mapping: h}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// compareUnpruned runs Solve and the unpruned evaluation of p over d with
// opts and reports any difference in error, verdict or answer bytes.
func compareUnpruned(p *core.PatternTree, d *db.Database, opts core.SolveOptions) error {
	ctx := context.Background()
	want, werr := p.SolveUnpruned(ctx, d, opts)
	got, gerr := p.Solve(ctx, d, opts)
	engine := "default"
	if opts.Engine != nil {
		engine = opts.Engine.Name()
	}
	where := fmt.Sprintf("mode %s, engine %s, P=%d, h=%v", opts.Mode, engine, opts.Parallelism, opts.Mapping)
	switch {
	case (werr == nil) != (gerr == nil):
		return fmt.Errorf("%s: error %v, unpruned error %v", where, gerr, werr)
	case got.Holds != want.Holds:
		return fmt.Errorf("%s: holds %v, unpruned %v", where, got.Holds, want.Holds)
	case renderAnswers(got.Answers) != renderAnswers(want.Answers):
		return fmt.Errorf("%s: answers\n%v\nunpruned\n%v", where, got.Answers, want.Answers)
	}
	return nil
}

// FuzzSolveUnpruned: Solve agrees with the unpruned evaluation on random
// trees and databases. The mode byte picks the mode (mod 6) and, for the
// decision modes, the candidate (the rest of it).
func FuzzSolveUnpruned(f *testing.F) {
	f.Add(int64(1), int64(100), byte(0))
	f.Add(int64(3), int64(7), byte(7))
	f.Add(int64(12), int64(5), byte(16))
	f.Fuzz(func(t *testing.T, treeSeed, dbSeed int64, modeByte byte) {
		p, d := lemma1Instance(treeSeed, dbSeed)
		opts := core.SolveOptions{Mode: allModes[int(modeByte)%len(allModes)]}
		if opts.Mode != core.ModeEnumerate && opts.Mode != core.ModeMaximal {
			ref, err := p.SolveUnpruned(context.Background(), d, core.SolveOptions{Mode: core.ModeEnumerate})
			if err != nil {
				t.Fatal(err)
			}
			candidates := decisionCandidates(p, ref.Answers)
			opts.Mapping = candidates[int(modeByte)/len(allModes)%len(candidates)]
		}
		if err := compareUnpruned(p, d, opts); err != nil {
			t.Fatalf("%v\ntree:\n%s", err, p)
		}
	})
}

func sameAnswerSets(a, b []cq.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, h := range a {
		set[h.Key()] = true
	}
	for _, h := range b {
		if !set[h.Key()] {
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
