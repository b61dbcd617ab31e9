package hypergraph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteWidths returns tw(h) and ghw(h) by trying every elimination
// ordering of h's vertices (at most 7 of them). A graph has a tree
// decomposition whose bags all lie in a downward-closed family iff the
// bags of some elimination ordering all do, so each width is the least,
// over orderings, of the largest bag measure: the bag size minus one for
// tw, the fewest edges covering the bag for ghw. Vertices in no edge are
// left out of ghw, and a ghw above 3 reads 4. It shares no code with the
// package's search: adjacency is one bitmask per vertex and a cover is
// found by trying every combination of edges.
func bruteWidths(h *Hypergraph) (tw, ghw int) {
	n := h.NumVertices()
	edges := make([]uint, len(h.edges))
	var covered uint
	adj := make([]uint, n)
	for i, e := range h.edges {
		for v := 0; v < n; v++ {
			if e.Has(v) {
				edges[i] |= 1 << v
			}
		}
		covered |= edges[i]
		for v := 0; v < n; v++ {
			if edges[i]>>v&1 == 1 {
				adj[v] |= edges[i] &^ (1 << v)
			}
		}
	}
	minCover := map[uint]int{}
	coverSize := func(bag uint) int {
		if c, ok := minCover[bag]; ok {
			return c
		}
		size := 0
		for size <= 3 && !coverableBy(bag, edges, size) {
			size++
		}
		minCover[bag] = size
		return size
	}
	tw, ghw = n, 4
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	permute(order, 0, func() {
		live := append([]uint(nil), adj...)
		var eliminated uint
		twOrder, ghwOrder := 0, 0
		for _, v := range order {
			nb := live[v] &^ eliminated
			twOrder = max(twOrder, bits.OnesCount(nb))
			if covered>>v&1 == 1 {
				ghwOrder = max(ghwOrder, coverSize(nb|1<<v))
			}
			for u := 0; u < n; u++ {
				if nb>>u&1 == 1 {
					live[u] |= nb &^ (1 << u)
				}
			}
			eliminated |= 1 << v
		}
		tw, ghw = min(tw, twOrder), min(ghw, ghwOrder)
	})
	return tw, ghw
}

// coverableBy reports whether some size of the edges cover bag, trying
// every combination.
func coverableBy(bag uint, edges []uint, size int) bool {
	if bag == 0 {
		return true
	}
	for i, e := range edges {
		if size > 0 && coverableBy(bag&^e, edges[i+1:], size-1) {
			return true
		}
	}
	return false
}

// randomGraph draws 1 to maxVertices vertices, each pair of them an edge
// with probability 3/4.
func randomGraph(rng *rand.Rand, maxVertices int) *Hypergraph {
	n := 1 + rng.Intn(maxVertices)
	h := New(names(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) != 0 {
				h.AddEdge([]string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", j)})
			}
		}
	}
	return h
}

// permute calls visit once for every permutation of xs[i:], in place.
func permute(xs []int, i int, visit func()) {
	if i == len(xs) {
		visit()
		return
	}
	for j := i; j < len(xs); j++ {
		xs[i], xs[j] = xs[j], xs[i]
		permute(xs, i+1, visit)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// coverWidth returns the largest cover of g.
func coverWidth(g *GHD) int {
	w := 0
	for _, c := range g.Covers {
		w = max(w, len(c))
	}
	return w
}

// TestWidthOracleProperty checks the width decisions and decompositions
// against bruteWidths on random hypergraphs and graphs of at most 7
// vertices:
// TreewidthAtMost for k 0–3, and GeneralizedHypertreewidthAtMost and the
// existence of a GHD for k 1–3, agree with the brute force; every TD and
// GHD validates, the TD is no narrower than tw and each GHD's covers have
// at most k edges.
func TestWidthOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 7)
		if rng.Intn(2) == 0 {
			h = randomGraph(rng, 7)
		}
		tw, ghw := bruteWidths(h)
		if d := h.TreeDecomposition(); d.Validate(h) != nil || d.Width() < tw {
			t.Logf("%s: bad tree decomposition %v %v (tw %d)", h, d.Bags, d.Parent, tw)
			return false
		}
		for k := 0; k <= 3; k++ {
			if got := h.TreewidthAtMost(k); got != (tw <= k) {
				t.Logf("%s: TreewidthAtMost(%d) = %v, brute-force tw %d", h, k, got, tw)
				return false
			}
		}
		for k := 1; k <= 3; k++ {
			if got := h.GeneralizedHypertreewidthAtMost(k); got != (ghw <= k) {
				t.Logf("%s: GeneralizedHypertreewidthAtMost(%d) = %v, brute-force ghw %d", h, k, got, ghw)
				return false
			}
			g, ok := h.GeneralizedHypertreeDecomposition(k)
			if ok != (ghw <= k) {
				t.Logf("%s: GeneralizedHypertreeDecomposition(%d) ok = %v, brute-force ghw %d", h, k, ok, ghw)
				return false
			}
			if ok && (g.Validate(h) != nil || coverWidth(g) > k) {
				t.Logf("%s: bad GHD for k %d: %v %v %v", h, k, g.Bags, g.Covers, g.Parent)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
