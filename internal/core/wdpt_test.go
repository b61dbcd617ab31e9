package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/gen"
)

func musicTree(t *testing.T, free ...string) *core.PatternTree {
	t.Helper()
	return gen.MusicWDPT(free...)
}

func TestWellDesignednessRejected(t *testing.T) {
	// Variable y occurs in the root and in a grandchild but not in the
	// intermediate node: not well-designed.
	_, err := core.New(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("R", cq.V("x"), cq.V("y"))},
		Children: []core.NodeSpec{{
			Atoms: []cq.Atom{cq.NewAtom("S", cq.V("x"))},
			Children: []core.NodeSpec{{
				Atoms: []cq.Atom{cq.NewAtom("T", cq.V("y"))},
			}},
		}},
	}, []string{"x"})
	if err == nil {
		t.Fatal("disconnected variable accepted")
	}
}

func TestWellDesignedSiblingsRejected(t *testing.T) {
	// Variable z in two sibling leaves but not in the root.
	_, err := core.New(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("R", cq.V("x"))},
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("S", cq.V("x"), cq.V("z"))}},
			{Atoms: []cq.Atom{cq.NewAtom("T", cq.V("x"), cq.V("z"))}},
		},
	}, []string{"x"})
	if err == nil {
		t.Fatal("sibling-shared variable accepted")
	}
}

func TestFreeVarValidation(t *testing.T) {
	spec := core.NodeSpec{Atoms: []cq.Atom{cq.NewAtom("R", cq.V("x"))}}
	if _, err := core.New(spec, []string{"x", "x"}); err == nil {
		t.Fatal("duplicate free variable accepted")
	}
	if _, err := core.New(spec, []string{"nope"}); err == nil {
		t.Fatal("unknown free variable accepted")
	}
}

func TestMusicTreeShape(t *testing.T) {
	p := musicTree(t, "x", "y", "z", "zp")
	if p.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", p.NumNodes())
	}
	if !p.IsProjectionFree() {
		t.Fatal("Example 1 tree is projection-free")
	}
	if p.HasConstants() != true {
		t.Fatal("music tree mentions the constant after_2010")
	}
	proj := musicTree(t, "y", "z")
	if proj.IsProjectionFree() {
		t.Fatal("projected tree should not be projection-free")
	}
	if got := len(p.Vars()); got != 4 {
		t.Fatalf("vars = %d, want 4", got)
	}
}

func TestFromCQ(t *testing.T) {
	q := cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))})
	p := core.FromCQ(q)
	if p.NumNodes() != 1 || len(p.Free()) != 1 {
		t.Fatal("FromCQ shape wrong")
	}
	d := gen.ChainDatabase(3)
	if got := len(solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers); got != len(q.Evaluate(d)) {
		t.Fatalf("FromCQ answers = %d, CQ answers = %d", got, len(q.Evaluate(d)))
	}
}

// countSubtrees returns the number of subtrees of p rooted in its root,
// capped at limit (0 means no cap).
func countSubtrees(p *core.PatternTree, limit int) int {
	count := 0
	p.EnumerateSubtrees(func(core.Subtree) bool {
		count++
		return limit == 0 || count < limit
	})
	return count
}

func TestSubtreeEnumeration(t *testing.T) {
	p := musicTree(t, "x", "y", "z", "zp")
	// Root alone, root+c1, root+c2, root+both: 4 subtrees.
	if got := countSubtrees(p, 0); got != 4 {
		t.Fatalf("subtrees = %d, want 4", got)
	}
	// A chain of 3 nodes has 3 subtrees.
	chain := gen.PathWDPT(3)
	if got := countSubtrees(chain, 0); got != 3 {
		t.Fatalf("chain subtrees = %d, want 3", got)
	}
	// Early stop honors the cap.
	if got := countSubtrees(p, 2); got != 2 {
		t.Fatalf("capped count = %d, want 2", got)
	}
}

// TestSubtreeEnumerationOrder pins the order EnumerateSubtrees visits the
// rooted subtrees of a fixed set of trees in: the SHA-256 of one line per
// subtree listing its node ids. Subsumption, approximation and φ_cq all
// walk the subtrees in this order, so a change to how subtrees are held or
// enumerated must leave it untouched.
func TestSubtreeEnumerationOrder(t *testing.T) {
	const want = "c080ae5240c00a463c7ea15e04ba94f2a6f0cde9fb5516df37fbf0c976f3280d"
	trees := []*core.PatternTree{musicTree(t, "x", "y", "z", "zp"), gen.StarWDPT(4), gen.PathWDPT(5)}
	tp := gen.TreeParams{MaxDepth: 3, MaxChildren: 2, InterfaceBound: 2}
	for seed := int64(1); seed <= 50; seed++ {
		trees = append(trees, gen.RandomWDPT(tp, seed))
	}
	h := sha256.New()
	subtrees := 0
	for i, p := range trees {
		fmt.Fprintf(h, "tree %d\n", i)
		p.EnumerateSubtrees(func(s core.Subtree) bool {
			subtrees++
			for id := 0; id < p.NumNodes(); id++ {
				if s.Has(id) {
					fmt.Fprintf(h, "%d,", id)
				}
			}
			fmt.Fprintln(h)
			return true
		})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("visit order digest %s over %d subtrees, want %s", got, subtrees, want)
	}
}

func TestSubtreeCQs(t *testing.T) {
	p := musicTree(t, "y", "z")
	full := p.FullSubtree()
	if got := len(p.SubtreeAtoms(full)); got != 4 {
		t.Fatalf("full atoms = %d, want 4", got)
	}
	r := p.SubtreeProjectedCQ(full)
	if got := len(r.Free()); got != 2 { // only the projected free vars
		t.Fatalf("r_T free vars = %d, want 2", got)
	}
	rootOnly := p.RootSubtree()
	if got := p.SubtreeFreeVars(rootOnly); len(got) != 1 || got[0] != "y" {
		t.Fatalf("root free vars = %v, want [y]", got)
	}
}

func TestMinimalSubtree(t *testing.T) {
	p := musicTree(t, "x", "y", "z", "zp")
	s, ok := p.MinimalSubtreeContaining([]string{"z"})
	if !ok || s.Len() != 2 {
		t.Fatalf("minimal subtree for z: %d nodes, ok %v", s.Len(), ok)
	}
	s, ok = p.MinimalSubtreeContaining([]string{"x"})
	if !ok || s.Len() != 1 {
		t.Fatalf("minimal subtree for x: %d nodes, ok %v", s.Len(), ok)
	}
	if _, ok = p.MinimalSubtreeContaining([]string{"missing"}); ok {
		t.Fatal("missing variable accepted")
	}
	s, ok = p.MinimalSubtreeContaining(nil)
	if !ok || s.Len() != 1 {
		t.Fatal("empty set should give the root subtree")
	}
}

func TestMaximalSubtreeWithoutNewFree(t *testing.T) {
	p := musicTree(t, "x", "y", "z", "zp")
	base := p.RootSubtree()
	// Allowing only x, y blocks both children (each adds a free var).
	s := p.MaximalSubtreeWithoutNewFree(base, map[string]bool{"x": true, "y": true})
	if s.Len() != 1 {
		t.Fatalf("expected root only, got %d nodes", s.Len())
	}
	// Allowing z too admits the first child.
	s = p.MaximalSubtreeWithoutNewFree(base, map[string]bool{"x": true, "y": true, "z": true})
	if s.Len() != 2 {
		t.Fatalf("expected root + rating child, got %d nodes", s.Len())
	}
}

func TestClassifyMusic(t *testing.T) {
	// Example 6: the Figure 1 tree is in ℓ-TW(1) and BI(2)... with the
	// published(x, const) atom, each node still has ≤ 2 variables.
	p := musicTree(t, "x", "y", "z", "zp")
	if !p.LocallyIn(cq.TW(1)) {
		t.Fatal("music tree should be locally TW(1)")
	}
	if got := p.InterfaceWidth(); got != 2 {
		t.Fatalf("interface width = %d, want 2", got)
	}
	if !p.GloballyIn(cq.TW(1)) {
		t.Fatal("music tree q_T is tree-shaped")
	}
	cl := p.Classify()
	if cl.LocalTW != 1 || cl.InterfaceWidth != 2 || cl.GlobalTW != 1 || cl.Nodes != 3 {
		t.Fatalf("classification = %+v", cl)
	}
	if cl.String() == "" {
		t.Fatal("empty classification report")
	}
}

func TestProposition2LocalBIImpliesGlobal(t *testing.T) {
	// ℓ-TW(k) ∩ BI(c) ⊆ g-TW(k+2c): check on random trees.
	for seed := int64(0); seed < 25; seed++ {
		p := gen.RandomWDPT(gen.TreeParams{InterfaceBound: 2, MaxDepth: 3}, seed)
		k := -1
		for i := 1; i <= 4; i++ {
			if p.LocallyIn(cq.TW(i)) {
				k = i
				break
			}
		}
		if k == -1 {
			continue
		}
		c := p.InterfaceWidth()
		if !p.GloballyIn(cq.TW(k + 2*c)) {
			t.Fatalf("seed %d: p ∈ ℓ-TW(%d) ∩ BI(%d) but not g-TW(%d):\n%s", seed, k, c, k+2*c, p)
		}
	}
}

func TestGlobalStrictlyWeakerThanLocalPlusBI(t *testing.T) {
	// Proposition 2(2): a family in g-TW(1) with unbounded interface: a
	// root with a long path of atoms, child repeating all path vars.
	n := 6
	var rootAtoms, childAtoms []cq.Atom
	for i := 0; i < n; i++ {
		rootAtoms = append(rootAtoms, cq.NewAtom("E", cq.V(fmt.Sprintf("w%d", i)), cq.V(fmt.Sprintf("w%d", i+1))))
		childAtoms = append(childAtoms, cq.NewAtom("E", cq.V(fmt.Sprintf("w%d", i)), cq.V(fmt.Sprintf("w%d", i+1))))
	}
	childAtoms = append(childAtoms, cq.NewAtom("E", cq.V("w0"), cq.V("fresh")))
	p := core.MustNew(core.NodeSpec{
		Atoms:    rootAtoms,
		Children: []core.NodeSpec{{Atoms: childAtoms}},
	}, []string{"w0"})
	if !p.GloballyIn(cq.TW(1)) {
		t.Fatal("path tree should be globally TW(1)")
	}
	if p.InterfaceWidth() <= 2 {
		t.Fatalf("interface width = %d, expected > 2", p.InterfaceWidth())
	}
}

func TestStringRendering(t *testing.T) {
	p := gen.PathWDPT(2)
	s := p.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String = %q", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := musicTree(t, "x", "y")
	c := p.Clone()
	if c.NumNodes() != p.NumNodes() || len(c.Free()) != len(p.Free()) {
		t.Fatal("clone shape differs")
	}
	if c.String() != p.String() {
		t.Fatal("clone renders differently")
	}
}

func TestGlobalHWNeedsSubtreeEnumeration(t *testing.T) {
	// The full-tree CQ is acyclic (the child's covering atom absorbs the
	// root clique, Example 5 style), but the root-only subtree is a plain
	// 4-clique of binary atoms with ghw 2 — so the tree is NOT globally
	// HW(1) although q_T ∈ HW(1). This is exactly why HW(k) needs the
	// subtree enumeration while TW(k) and HW'(k) do not (Section 5).
	var cliqueAtoms []cq.Atom
	vars := []cq.Term{cq.V("x1"), cq.V("x2"), cq.V("x3"), cq.V("x4")}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			cliqueAtoms = append(cliqueAtoms, cq.NewAtom("E", vars[i], vars[j]))
		}
	}
	p := core.MustNew(core.NodeSpec{
		Atoms: cliqueAtoms,
		Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("T", vars...)}},
		},
	}, []string{"x1"})
	if !cq.HW(1).ContainsAtoms(p.AllAtoms()) {
		t.Fatal("the full CQ should be acyclic")
	}
	if p.GloballyIn(cq.HW(1)) {
		t.Fatal("the root subtree is cyclic: p must not be globally HW(1)")
	}
	if !p.GloballyIn(cq.HW(2)) {
		t.Fatal("every subtree has ghw <= 2")
	}
	// TW is subquery-closed: global TW = treewidth of the full CQ.
	if p.GloballyIn(cq.TW(2)) {
		t.Fatal("the 4-clique has treewidth 3")
	}
	if !p.GloballyIn(cq.TW(3)) {
		t.Fatal("treewidth 3 suffices globally")
	}
}

func TestDepth(t *testing.T) {
	if got := gen.PathWDPT(4).Depth(); got != 3 {
		t.Fatalf("chain depth = %d, want 3", got)
	}
	if got := gen.StarWDPT(5).Depth(); got != 1 {
		t.Fatalf("star depth = %d, want 1", got)
	}
	if got := core.FromCQ(cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("V", cq.V("x"))})).Depth(); got != 0 {
		t.Fatalf("single node depth = %d, want 0", got)
	}
	cl := gen.PathWDPT(3).Classify()
	if cl.Depth != 2 {
		t.Fatalf("classification depth = %d", cl.Depth)
	}
}
