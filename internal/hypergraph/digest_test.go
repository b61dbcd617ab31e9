package hypergraph

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// widthDigest pins every width answer of the package on pinFamily: the
// min-fill TreeDecomposition's bags and parents, the
// GeneralizedHypertreeDecomposition for k 0–3 (bags, covers and parents),
// and the TreewidthAtMost (k 0–4), GeneralizedHypertreewidthAtMost (k 0–3)
// and BetaHypertreewidthAtMost (k 1–2) decisions. A refactor of the search
// or the builder must leave it unchanged; a change that means to move a
// decomposition re-pins it and says so.
const widthDigest = "7c3fcab6bbf102ab965ae279c77ae85b77afa181ba0366bf3401f240623874ad"

// gridGraph returns the hypergraph of the r×c grid with binary edges.
func gridGraph(r, c int) *Hypergraph {
	at := func(i, j int) string { return fmt.Sprintf("v%d", i*c+j) }
	h := New(names(r * c))
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				h.AddEdge([]string{at(i, j), at(i+1, j)})
			}
			if j+1 < c {
				h.AddEdge([]string{at(i, j), at(i, j+1)})
			}
		}
	}
	return h
}

// randomHypergraph draws 1 to maxVertices vertices and up to 6 edges of
// 1–4 vertices each, so isolated vertices, duplicate edges and nested
// edges all occur.
func randomHypergraph(rng *rand.Rand, maxVertices int) *Hypergraph {
	n := 1 + rng.Intn(maxVertices)
	h := New(names(n))
	for e := rng.Intn(7); e > 0; e-- {
		size := 1 + rng.Intn(4)
		var vs []string
		for _, v := range rng.Perm(n)[:min(size, n)] {
			vs = append(vs, fmt.Sprintf("v%d", v))
		}
		h.AddEdge(vs)
	}
	return h
}

// pinFamily is the input set of the width digest and of BenchmarkWidth:
// 320 seeded random hypergraphs, then cycles, cliques and grids.
func pinFamily() []*Hypergraph {
	var out []*Hypergraph
	for seed := int64(0); seed < 320; seed++ {
		out = append(out, randomHypergraph(rand.New(rand.NewSource(seed)), 8))
	}
	for n := 3; n <= 8; n++ {
		out = append(out, cycleGraph(n))
	}
	for n := 1; n <= 6; n++ {
		out = append(out, cliqueGraph(n))
	}
	for _, rc := range [][2]int{{2, 2}, {2, 3}, {3, 3}, {3, 4}, {4, 4}} {
		out = append(out, gridGraph(rc[0], rc[1]))
	}
	return out
}

// writeWidths renders every pinned width answer of h to w. The β-hw k = 2
// decision enumerates all 2^|E| edge subsets, so it is rendered only for
// hypergraphs of at most 10 edges.
func writeWidths(w io.Writer, h *Hypergraph) {
	fmt.Fprintf(w, "%s\n", h)
	d := h.TreeDecomposition()
	fmt.Fprintf(w, "td %v %v\n", d.Bags, d.Parent)
	for k := 0; k <= 3; k++ {
		if g, ok := h.GeneralizedHypertreeDecomposition(k); ok {
			fmt.Fprintf(w, "ghd%d %v %v %v\n", k, g.Bags, g.Covers, g.Parent)
		} else {
			fmt.Fprintf(w, "ghd%d none\n", k)
		}
	}
	for k := 0; k <= 4; k++ {
		fmt.Fprintf(w, "tw%d %v\n", k, h.TreewidthAtMost(k))
	}
	for k := 0; k <= 3; k++ {
		fmt.Fprintf(w, "ghw%d %v\n", k, h.GeneralizedHypertreewidthAtMost(k))
	}
	fmt.Fprintf(w, "bhw1 %v\n", h.BetaHypertreewidthAtMost(1))
	if len(h.edges) <= 10 {
		fmt.Fprintf(w, "bhw2 %v\n", h.BetaHypertreewidthAtMost(2))
	}
}

// TestWidthDigest checks the width digest over the pin family.
func TestWidthDigest(t *testing.T) {
	sum := sha256.New()
	for i, h := range pinFamily() {
		fmt.Fprintf(sum, "#%d ", i)
		writeWidths(sum, h)
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != widthDigest {
		t.Fatalf("width digest %s, want %s", got, widthDigest)
	}
}

// BenchmarkWidth runs each width question over the whole pin family per
// iteration: the min-fill tree decomposition, the treewidth decisions for
// k 0–4, the ghw decisions for k 1–3 and the GHD extractions for k 1–3.
func BenchmarkWidth(b *testing.B) {
	family := pinFamily()
	cases := []struct {
		name string
		run  func(h *Hypergraph)
	}{
		{"td", func(h *Hypergraph) { h.TreeDecomposition() }},
		{"tw", func(h *Hypergraph) {
			for k := 0; k <= 4; k++ {
				h.TreewidthAtMost(k)
			}
		}},
		{"ghw", func(h *Hypergraph) {
			for k := 1; k <= 3; k++ {
				h.GeneralizedHypertreewidthAtMost(k)
			}
		}},
		{"ghd", func(h *Hypergraph) {
			for k := 1; k <= 3; k++ {
				h.GeneralizedHypertreeDecomposition(k)
			}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, h := range family {
					c.run(h)
				}
			}
		})
	}
}
