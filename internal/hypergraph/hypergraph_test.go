package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%d", i)
	}
	return out
}

// pathGraph returns the hypergraph of a length-n path (binary edges).
func pathGraph(n int) *Hypergraph {
	h := New(names(n))
	for i := 0; i+1 < n; i++ {
		h.AddEdge([]string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)})
	}
	return h
}

// cycleGraph returns the hypergraph of an n-cycle.
func cycleGraph(n int) *Hypergraph {
	h := pathGraph(n)
	h.AddEdge([]string{fmt.Sprintf("v%d", n-1), "v0"})
	return h
}

// cliqueGraph returns the hypergraph of K_n with binary edges.
func cliqueGraph(n int) *Hypergraph {
	h := New(names(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			h.AddEdge([]string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", j)})
		}
	}
	return h
}

func TestSetOps(t *testing.T) {
	s := NewSet(130)
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Len() != 3 || !s.Has(64) || s.Has(63) {
		t.Fatal("basic set ops wrong")
	}
	u := s.Clone()
	u.Remove(64)
	if u.Len() != 2 || s.Len() != 3 {
		t.Fatal("clone/remove wrong")
	}
	if !u.SubsetOf(s) || s.SubsetOf(u) {
		t.Fatal("subset wrong")
	}
	if got := s.Elements(); len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Fatalf("Elements = %v", got)
	}
	diff := s.Subtract(u)
	if diff.Len() != 1 || !diff.Has(64) {
		t.Fatal("subtract wrong")
	}
	if s.Key() == u.Key() {
		t.Fatal("keys should differ")
	}
	var empty Set = NewSet(130)
	if !empty.Empty() {
		t.Fatal("empty set wrong")
	}
}

// treewidth returns the exact treewidth of h: the least k that
// TreewidthAtMost accepts.
func treewidth(h *Hypergraph) int {
	k := 0
	for !h.TreewidthAtMost(k) {
		k++
	}
	return k
}

func TestTreewidthPath(t *testing.T) {
	if w := treewidth(pathGraph(8)); w != 1 {
		t.Fatalf("path treewidth = %d, want 1", w)
	}
}

func TestTreewidthCycle(t *testing.T) {
	if w := treewidth(cycleGraph(8)); w != 2 {
		t.Fatalf("cycle treewidth = %d, want 2", w)
	}
}

func TestTreewidthClique(t *testing.T) {
	// Example 4 of the paper: the clique K_n has treewidth n-1.
	for n := 3; n <= 7; n++ {
		if w := treewidth(cliqueGraph(n)); w != n-1 {
			t.Fatalf("K_%d treewidth = %d, want %d", n, w, n-1)
		}
	}
}

func TestTreewidthGrid(t *testing.T) {
	// The m×m grid has treewidth m.
	m := 4
	if w := treewidth(gridGraph(m, m)); w != m {
		t.Fatalf("%dx%d grid treewidth = %d, want %d", m, m, w, m)
	}
}

func TestTreewidthEmptyAndSingle(t *testing.T) {
	h := New(nil)
	if w := treewidth(h); w != 0 {
		t.Fatalf("empty graph tw = %d", w)
	}
	h = New([]string{"x"})
	h.AddEdge([]string{"x"})
	if w := treewidth(h); w != 0 {
		t.Fatalf("single vertex tw = %d", w)
	}
}

func TestTreewidthAtMost(t *testing.T) {
	h := cliqueGraph(5)
	if h.TreewidthAtMost(3) {
		t.Fatal("K_5 should not have tw <= 3")
	}
	if !h.TreewidthAtMost(4) {
		t.Fatal("K_5 has tw 4")
	}
}

func TestTreeDecompositionValid(t *testing.T) {
	for name, h := range map[string]*Hypergraph{
		"path":   pathGraph(6),
		"cycle":  cycleGraph(6),
		"clique": cliqueGraph(5),
	} {
		d := h.TreeDecomposition()
		if err := d.Validate(h); err != nil {
			t.Fatalf("%s: invalid decomposition: %v", name, err)
		}
	}
}

func TestTreeDecompositionWidthMatchesTreewidth(t *testing.T) {
	// On simple families min-fill is optimal.
	cases := []struct {
		h    *Hypergraph
		want int
	}{
		{pathGraph(7), 1},
		{cycleGraph(7), 2},
		{cliqueGraph(4), 3},
	}
	for i, c := range cases {
		if got := c.h.TreeDecomposition().Width(); got != c.want {
			t.Fatalf("case %d: decomposition width = %d, want %d", i, got, c.want)
		}
	}
}

func TestAcyclicPath(t *testing.T) {
	ok, jt := pathGraph(6).IsAcyclic()
	if !ok {
		t.Fatal("path should be acyclic")
	}
	validateJoinTree(t, pathGraph(6), jt)
}

func TestAcyclicCycleIsNot(t *testing.T) {
	if ok, _ := cycleGraph(5).IsAcyclic(); ok {
		t.Fatal("cycle should not be acyclic")
	}
}

func TestAcyclicTriangleWithBigEdge(t *testing.T) {
	// Example 5 of the paper: a clique plus one covering hyperedge is
	// acyclic (in AC = HW(1)) although its treewidth is unbounded.
	n := 5
	h := cliqueGraph(n)
	h.AddEdge(names(n))
	ok, jt := h.IsAcyclic()
	if !ok {
		t.Fatal("clique + covering edge should be acyclic")
	}
	validateJoinTree(t, h, jt)
	if w := treewidth(h); w != n-1 {
		t.Fatalf("treewidth = %d, want %d", w, n-1)
	}
	if !h.GeneralizedHypertreewidthAtMost(1) {
		t.Fatal("should have ghw 1")
	}
}

func validateJoinTree(t *testing.T, h *Hypergraph, jt *JoinTree) {
	t.Helper()
	if jt == nil {
		t.Fatal("nil join tree")
	}
	m := len(h.edges)
	if len(jt.Parent) != m || len(jt.Order) != m {
		t.Fatalf("join tree sizes wrong: %d parents, %d order, %d edges", len(jt.Parent), len(jt.Order), m)
	}
	roots := 0
	for _, p := range jt.Parent {
		if p == -1 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("join tree has %d roots, want 1", roots)
	}
	// Order must be bottom-up: each edge before its parent.
	pos := make(map[int]int, m)
	for i, e := range jt.Order {
		pos[e] = i
	}
	for e, p := range jt.Parent {
		if p != -1 && pos[e] > pos[p] {
			t.Fatalf("edge %d appears after its parent %d in order", e, p)
		}
	}
	// Connectivity: for every vertex, the edges containing it must form a
	// connected subtree of the join tree.
	for v := 0; v < h.NumVertices(); v++ {
		var occ []int
		for i, e := range h.edges {
			if e.Has(v) {
				occ = append(occ, i)
			}
		}
		if len(occ) <= 1 {
			continue
		}
		occSet := make(map[int]bool)
		for _, e := range occ {
			occSet[e] = true
		}
		// Walk each occurrence up to the root; the meeting structure is
		// connected iff exactly one occurrence's parent-chain leaves the
		// set without re-entering... simpler: check that the occurrence
		// set has exactly one member whose parent is outside the set AND
		// that for the others the parent is inside.
		outside := 0
		for _, e := range occ {
			if p := jt.Parent[e]; p == -1 || !occSet[p] {
				outside++
			}
		}
		if outside != 1 {
			t.Fatalf("vertex %d occurs in a disconnected part of the join tree", v)
		}
	}
}

// generalizedHypertreewidth returns the exact generalized hypertreewidth
// of h (0 for an edgeless hypergraph): the least k that
// GeneralizedHypertreewidthAtMost accepts.
func generalizedHypertreewidth(h *Hypergraph) int {
	if len(h.edges) == 0 {
		return 0
	}
	for k := 1; ; k++ {
		if h.GeneralizedHypertreewidthAtMost(k) {
			return k
		}
	}
}

func TestGHWCycle(t *testing.T) {
	h := cycleGraph(6)
	if h.GeneralizedHypertreewidthAtMost(1) {
		t.Fatal("cycle is not acyclic")
	}
	if !h.GeneralizedHypertreewidthAtMost(2) {
		t.Fatal("cycle has ghw 2")
	}
	if got := generalizedHypertreewidth(h); got != 2 {
		t.Fatalf("ghw = %d, want 2", got)
	}
}

func TestGHWFewEdges(t *testing.T) {
	h := cliqueGraph(4) // 6 edges
	if !h.GeneralizedHypertreewidthAtMost(6) {
		t.Fatal("k >= #edges is always enough")
	}
	if got := generalizedHypertreewidth(h); got < 2 || got > 3 {
		t.Fatalf("K4 ghw = %d, expected 2..3", got)
	}
}

func TestBetaAcyclic(t *testing.T) {
	// A path is beta-acyclic.
	if !pathGraph(5).IsBetaAcyclic() {
		t.Fatal("path should be beta-acyclic")
	}
	// Clique + covering edge is alpha- but NOT beta-acyclic for n >= 3:
	// the clique subhypergraph is cyclic.
	h := cliqueGraph(3)
	h.AddEdge(names(3))
	if h.IsBetaAcyclic() {
		t.Fatal("clique+cover should not be beta-acyclic")
	}
	ok, _ := h.IsAcyclic()
	if !ok {
		t.Fatal("clique+cover should be alpha-acyclic")
	}
	// BetaHypertreewidthAtMost(1) must agree with IsBetaAcyclic.
	if h.BetaHypertreewidthAtMost(1) {
		t.Fatal("beta-hw 1 should fail")
	}
	if !h.BetaHypertreewidthAtMost(2) {
		t.Fatal("beta-hw 2 should hold for triangle+cover")
	}
}

func TestBetaAcyclicChain(t *testing.T) {
	// Nested edges form chains: {a}, {a,b}, {a,b,c} is beta-acyclic.
	h := New([]string{"a", "b", "c"})
	h.AddEdge([]string{"a"})
	h.AddEdge([]string{"a", "b"})
	h.AddEdge([]string{"a", "b", "c"})
	if !h.IsBetaAcyclic() {
		t.Fatal("nested chain should be beta-acyclic")
	}
}

// Property: on random graphs treewidth is monotone in k and at most the
// width of the min-fill decomposition, which is valid.
func TestTreewidthConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		h := New(names(n))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					h.AddEdge([]string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", j)})
				}
			}
		}
		w := treewidth(h)
		for k := w; k <= n; k++ {
			if !h.TreewidthAtMost(k) {
				return false
			}
		}
		d := h.TreeDecomposition()
		if err := d.Validate(h); err != nil {
			return false
		}
		return d.Width() >= w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: alpha-acyclicity agrees with ghw <= 1 computed by the search.
func TestAcyclicAgreesWithGHW1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		h := New(names(n))
		for e := 0; e < 2+rng.Intn(4); e++ {
			var vs []string
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					vs = append(vs, fmt.Sprintf("v%d", v))
				}
			}
			if len(vs) > 0 {
				h.AddEdge(vs)
			}
		}
		gyo, _ := h.IsAcyclic()
		search := h.ghw1ViaSearch()
		return gyo == search
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGHDExtraction(t *testing.T) {
	// Cycle: ghw 2; the decomposition must validate.
	h := cycleGraph(6)
	if _, ok := h.GeneralizedHypertreeDecomposition(1); ok {
		t.Fatal("cycle has no width-1 GHD")
	}
	g, ok := h.GeneralizedHypertreeDecomposition(2)
	if !ok {
		t.Fatal("cycle has a width-2 GHD")
	}
	if w := coverWidth(g); w > 2 {
		t.Fatalf("width = %d", w)
	}
	if err := g.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestGHDAcyclicWidthOne(t *testing.T) {
	h := cliqueGraph(4)
	h.AddEdge(names(4)) // covering edge makes it acyclic
	g, ok := h.GeneralizedHypertreeDecomposition(1)
	if !ok {
		t.Fatal("acyclic hypergraph has a width-1 GHD")
	}
	if w := coverWidth(g); w != 1 {
		t.Fatalf("width = %d, want 1", w)
	}
	if err := g.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestGHDEmpty(t *testing.T) {
	h := New(nil)
	g, ok := h.GeneralizedHypertreeDecomposition(1)
	if !ok || len(g.Bags) != 1 {
		t.Fatal("edgeless hypergraph should have the trivial GHD")
	}
}

func TestDecompositionValidateErrors(t *testing.T) {
	h := pathGraph(3)
	// A bag mentioning an unknown vertex.
	bad := &Decomposition{Bags: [][]string{{"nope"}}, Parent: []int{-1}}
	if err := bad.Validate(h); err == nil {
		t.Fatal("unknown vertex accepted")
	}
	// An edge not covered by any bag.
	bad = &Decomposition{Bags: [][]string{{"v0"}, {"v1"}}, Parent: []int{-1, 0}}
	if err := bad.Validate(h); err == nil {
		t.Fatal("uncovered edge accepted")
	}
	// Disconnected occurrences of a vertex.
	bad = &Decomposition{
		Bags:   [][]string{{"v0", "v1"}, {"v2"}, {"v1", "v2"}},
		Parent: []int{-1, 0, 1},
	}
	if err := bad.Validate(h); err == nil {
		t.Fatal("disconnected occurrence accepted")
	}
}

func TestGHDValidateCoverError(t *testing.T) {
	h := pathGraph(3)
	g := &GHD{
		Bags:   [][]string{{"v0", "v1"}, {"v1", "v2"}},
		Covers: [][]int{{0}, {0}}, // second cover wrong: edge 0 is {v0,v1}
		Parent: []int{-1, 0},
	}
	if err := g.Validate(h); err == nil {
		t.Fatal("wrong cover accepted")
	}
}

func TestGeneralizedHypertreewidthExactValue(t *testing.T) {
	// Three ternary edges pairwise overlapping in one vertex, forming a
	// cyclic structure: ghw 2.
	h := New([]string{"a", "b", "c", "x", "y", "z"})
	h.AddEdge([]string{"a", "b", "x"})
	h.AddEdge([]string{"b", "c", "y"})
	h.AddEdge([]string{"c", "a", "z"})
	if got := generalizedHypertreewidth(h); got != 2 {
		t.Fatalf("ghw = %d, want 2", got)
	}
}

func TestBetaHWInvalidK(t *testing.T) {
	h := pathGraph(3)
	if h.BetaHypertreewidthAtMost(0) {
		t.Fatal("k=0 must be false")
	}
	if h.GeneralizedHypertreewidthAtMost(0) {
		t.Fatal("ghw k=0 must be false")
	}
	if _, ok := h.GeneralizedHypertreeDecomposition(0); ok {
		t.Fatal("GHD k=0 must fail")
	}
}
