package hypergraph

// GYO-style acyclicity testing, join trees for acyclic hypergraphs, and
// β-acyclicity via nest-point elimination.

// JoinTree is a join tree of an α-acyclic hypergraph: one node per original
// hyperedge with parent pointers (-1 for the root), such that for every
// vertex the edges containing it form a connected subtree.
type JoinTree struct {
	// Parent[i] is the parent edge index of edge i, or -1 for the root.
	Parent []int
	// Order lists edge indices bottom-up: every edge appears before its
	// parent. Suitable as a semijoin processing order for Yannakakis.
	Order []int
}

// IsAcyclic reports whether h is α-acyclic (equivalently, of generalized
// hypertreewidth 1) using the GYO reduction, and returns a join tree when it
// is. Duplicate and empty edges are handled.
func (h *Hypergraph) IsAcyclic() (bool, *JoinTree) {
	m := len(h.edges)
	if m == 0 {
		return true, &JoinTree{}
	}
	reduced := make([]Set, m)
	for i, e := range h.edges {
		reduced[i] = e.Clone()
	}
	live := make([]bool, m)
	for i := range live {
		live[i] = true
	}
	nLive := m
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	var order []int

	for {
		changed := false
		// Ear removal: drop vertices that occur in at most one live edge.
		occ := make([]int, h.NumVertices())
		for i := range reduced {
			if !live[i] {
				continue
			}
			for _, v := range reduced[i].Elements() {
				occ[v]++
			}
		}
		for i := range reduced {
			if !live[i] {
				continue
			}
			for _, v := range reduced[i].Elements() {
				if occ[v] <= 1 {
					reduced[i].Remove(v)
					changed = true
				}
			}
		}
		// Subset removal: an edge contained in another live edge hangs off
		// it in the join tree.
		for i := range reduced {
			if !live[i] || nLive == 1 {
				continue
			}
			for j := range reduced {
				if i == j || !live[j] {
					continue
				}
				if reduced[i].SubsetOf(reduced[j]) {
					live[i] = false
					nLive--
					parent[i] = j
					order = append(order, i)
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	if nLive != 1 {
		return false, nil
	}
	for i := range live {
		if live[i] {
			order = append(order, i)
		}
	}
	// Path-compress parents onto live ancestors: a removed edge may point to
	// an edge that was itself removed later; that is fine for a join tree as
	// long as ancestry is respected, which the removal order guarantees.
	return true, &JoinTree{Parent: parent, Order: order}
}

// IsBetaAcyclic reports whether every subhypergraph of h (every subset of
// its edges) is α-acyclic, using the polynomial nest-point elimination
// characterization: h is β-acyclic iff repeatedly deleting nest points
// (vertices whose incident edges form a chain under ⊆) and empty edges
// eliminates all vertices.
func (h *Hypergraph) IsBetaAcyclic() bool {
	edges := make([]Set, 0, len(h.edges))
	for _, e := range h.edges {
		edges = append(edges, e.Clone())
	}
	liveVerts := NewSet(h.NumVertices())
	for _, e := range edges {
		liveVerts.UnionWith(e)
	}
	for !liveVerts.Empty() {
		nest := -1
		for _, v := range liveVerts.Elements() {
			if isNestPoint(edges, v) {
				nest = v
				break
			}
		}
		if nest == -1 {
			return false
		}
		for i := range edges {
			edges[i].Remove(nest)
		}
		liveVerts.Remove(nest)
	}
	return true
}

// isNestPoint reports whether the edges containing v form a ⊆-chain.
func isNestPoint(edges []Set, v int) bool {
	var incident []Set
	for _, e := range edges {
		if e.Has(v) {
			incident = append(incident, e)
		}
	}
	for i := 0; i < len(incident); i++ {
		for j := i + 1; j < len(incident); j++ {
			if !incident[i].SubsetOf(incident[j]) && !incident[j].SubsetOf(incident[i]) {
				return false
			}
		}
	}
	return true
}
