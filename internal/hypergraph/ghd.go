package hypergraph

import "fmt"

// Extraction of generalized hypertree decompositions (GHDs): beyond the
// yes/no test of GeneralizedHypertreewidthAtMost, evaluation engines need
// the decomposition itself — a tree of bags, each covered by at most k
// hyperedges (Theorem 3 substrate).

// GHD is a generalized hypertree decomposition: a tree decomposition whose
// every bag carries a cover of at most k hyperedges.
type GHD struct {
	// Bags[i] lists the vertex names of bag i.
	Bags [][]string
	// Covers[i] lists indices of hyperedges whose union contains bag i.
	Covers [][]int
	// Parent[i] is the parent bag (-1 for the root).
	Parent []int
}

// GeneralizedHypertreeDecomposition computes a GHD of width at most k, or
// ok=false if ghw(h) > k. It records the ordering the search of
// GeneralizedHypertreewidthAtMost finds and builds the bag tree from it, as
// TreeDecomposition does from the min-fill ordering; each bag's cover is
// the first one coverOf finds.
func (h *Hypergraph) GeneralizedHypertreeDecomposition(k int) (*GHD, bool) {
	if k <= 0 {
		return nil, false
	}
	if len(h.edges) == 0 {
		return &GHD{Bags: [][]string{{}}, Covers: [][]int{{}}, Parent: []int{-1}}, true
	}
	pre := h.uncovered()
	order := make([]int, h.NumVertices()-pre.Len())
	if !h.hwSearch(k, order) {
		return nil, false
	}
	bags, parent := h.eliminationTree(order, pre)
	g := &GHD{Bags: make([][]string, len(bags)), Covers: make([][]int, len(bags)), Parent: parent}
	for i, bag := range bags {
		g.Bags[i] = h.namesOf(bag)
		cover, ok := h.coverOf(bag, k, make([]int, 0, k))
		if !ok {
			// unreachable invariant violation: the search accepted this bag
			panic("hypergraph: accepted bag has no cover")
		}
		g.Covers[i] = cover
	}
	return g, true
}

// Validate checks the GHD conditions against h.
func (g *GHD) Validate(h *Hypergraph) error {
	d := &Decomposition{Bags: g.Bags, Parent: g.Parent}
	if err := d.Validate(h); err != nil {
		return err
	}
	for i, bag := range g.Bags {
		union := NewSet(h.NumVertices())
		for _, e := range g.Covers[i] {
			union.UnionWith(h.edges[e])
		}
		for _, v := range bag {
			if !union.Has(h.index[v]) {
				return fmt.Errorf("hypergraph: bag %d vertex %q not covered by its edge cover", i, v)
			}
		}
	}
	return nil
}
