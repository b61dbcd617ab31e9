package hypergraph

import "math/bits"

// Generalized hypertree width (called simply "hypertreewidth" in Section 3.1
// of the paper, following its remark on terminology), decided by the
// elimination-order search whose bags are the sets coverable by at most k
// hyperedges.

// GeneralizedHypertreewidthAtMost decides ghw(h) ≤ k exactly. k must be
// positive. ghw ≤ 1 coincides with α-acyclicity and is answered by GYO in
// polynomial time; larger k uses memoized elimination search, exponential in
// the worst case but fast on the small query hypergraphs arising here.
func (h *Hypergraph) GeneralizedHypertreewidthAtMost(k int) bool {
	if k <= 0 {
		return false
	}
	if k == 1 {
		ok, _ := h.IsAcyclic()
		return ok
	}
	return len(h.edges) <= k || h.hwSearch(k, nil)
}

// hwSearch runs the elimination-order search whose bags are the sets
// covered by at most k edges. Vertices in no edge never constrain a
// decomposition, so they start out eliminated and the search orders the
// covered vertices only; order, when non-nil, has one slot for each.
func (h *Hypergraph) hwSearch(k int, order []int) bool {
	eliminated := h.uncovered()
	cover := make([]int, 0, k)
	fits := func(bag Set) bool {
		_, ok := h.coverOf(bag, k, cover)
		return ok
	}
	return orderSearch(h.adjacency(), eliminated, h.NumVertices()-eliminated.Len(), fits, make(map[string]bool), order)
}

// uncovered returns the vertices that lie in no edge.
func (h *Hypergraph) uncovered() Set {
	s := h.AllVertices()
	for _, e := range h.edges {
		s.SubtractWith(e)
	}
	return s
}

// BetaHypertreewidthAtMost decides whether every subhypergraph of h (every
// subset of its edges) has ghw ≤ k — the class HW'(k) of Section 5 (called
// β-hypertreewidth in [Gottlob & Pichler 2004]). For k = 1 this is
// β-acyclicity, decided in polynomial time by nest-point elimination. For
// k ≥ 2 all edge subsets are enumerated, which is exponential in the number
// of edges; the paper notes that no efficient recognition procedure is
// known for this class.
func (h *Hypergraph) BetaHypertreewidthAtMost(k int) bool {
	if k <= 0 {
		return false
	}
	if k == 1 {
		return h.IsBetaAcyclic()
	}
	m := len(h.edges)
	for mask := 1; mask < (1 << uint(m)); mask++ {
		sub := &Hypergraph{names: h.names, index: h.index}
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub.edges = append(sub.edges, h.edges[i])
			}
		}
		if !sub.GeneralizedHypertreewidthAtMost(k) {
			return false
		}
	}
	return true
}

// coverOf extends cover, a list of edge indices, to at most k edges whose
// union contains vs, and returns it. It branches on the smallest vertex
// the cover leaves out and tries the edges containing it in index order.
// Given a cover with room for k indices, the search allocates nothing.
func (h *Hypergraph) coverOf(vs Set, k int, cover []int) ([]int, bool) {
	v := h.firstUncovered(vs, cover)
	if v < 0 {
		return cover, true
	}
	if len(cover) == k {
		return nil, false
	}
	for i, e := range h.edges {
		if e.Has(v) {
			if c, ok := h.coverOf(vs, k, append(cover, i)); ok {
				return c, true
			}
		}
	}
	return nil, false
}

// firstUncovered returns the smallest vertex of vs in none of the edges of
// cover, or -1 when there is none.
func (h *Hypergraph) firstUncovered(vs Set, cover []int) int {
	for wi, w := range vs {
		for _, i := range cover {
			w &^= h.edges[i][wi]
		}
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
