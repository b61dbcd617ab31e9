package hypergraph

// Treewidth: the min-fill elimination ordering, which gives both a quick
// upper bound and the tree decomposition the evaluation engines use, and
// the exact decision tw ≤ k.

// TreewidthAtMost decides tw(h) ≤ k exactly. It first tries the min-fill
// upper bound and only then runs the elimination-order search, whose bags
// are the sets of at most k+1 vertices; the search is exponential in the
// worst case.
func (h *Hypergraph) TreewidthAtMost(k int) bool {
	n := h.NumVertices()
	if n <= k+1 {
		return true
	}
	if _, ub := h.minFillOrder(); ub <= k {
		return true
	}
	fits := func(bag Set) bool { return bag.Len() <= k+1 }
	return orderSearch(h.adjacency(), NewSet(n), n, fits, make(map[string]bool), nil)
}

// minFillOrder computes a min-fill elimination ordering and its width.
func (h *Hypergraph) minFillOrder() (order []int, width int) {
	n := h.NumVertices()
	adj := h.adjacency()
	eliminated := NewSet(n)
	for step := 0; step < n; step++ {
		best, bestFill, bestDeg := -1, -1, -1
		for v := 0; v < n; v++ {
			if eliminated.Has(v) {
				continue
			}
			nb := adj[v].Subtract(eliminated)
			fill := fillCount(adj, nb)
			deg := nb.Len()
			if best == -1 || fill < bestFill || (fill == bestFill && deg < bestDeg) {
				best, bestFill, bestDeg = v, fill, deg
			}
		}
		nb := adj[best].Subtract(eliminated)
		if d := nb.Len(); d > width {
			width = d
		}
		eliminate(adj, eliminated, best, nb)
		order = append(order, best)
	}
	return order, width
}

func fillCount(adj []Set, nb Set) int {
	elems := nb.Elements()
	fill := 0
	for i, u := range elems {
		for _, w := range elems[i+1:] {
			if !adj[u].Has(w) {
				fill++
			}
		}
	}
	return fill
}

// TreeDecomposition builds a tree decomposition from the min-fill
// elimination ordering. Its width is an upper bound on tw(h); for many
// practically arising queries it is optimal.
func (h *Hypergraph) TreeDecomposition() *Decomposition {
	n := h.NumVertices()
	if n == 0 {
		return &Decomposition{Bags: [][]string{{}}, Parent: []int{-1}}
	}
	order, _ := h.minFillOrder()
	bags, parent := h.eliminationTree(order, NewSet(n))
	d := &Decomposition{Bags: make([][]string, n), Parent: parent}
	for i, bag := range bags {
		d.Bags[i] = h.namesOf(bag)
	}
	return d
}

func (h *Hypergraph) namesOf(s Set) []string {
	elems := s.Elements()
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = h.names[e]
	}
	return out
}
