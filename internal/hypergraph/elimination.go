package hypergraph

// Every width question of the package is one algorithm (THEORY.md §7): a
// graph has a tree decomposition whose bags all lie in a downward-closed
// family F iff it has an elimination ordering in which every vertex,
// together with its live neighbourhood when it is eliminated, lies in F.
// Treewidth ≤ k takes F = "at most k+1 vertices", generalized hypertree
// width ≤ k takes F = "covered by at most k hyperedges". orderSearch finds
// such an ordering and eliminationTree turns an ordering into its bag tree.

// orderSearch reports whether the live graph (the vertices outside
// eliminated, joined by adj and the fill edges already added to it) has an
// elimination ordering whose every bag satisfies fits. The fill-in graph
// after eliminating a set does not depend on the order, so a state is the
// eliminated set. Only failed states are memoized: a success ends the
// search. When order is non-nil it has one slot per vertex the top-level
// call had to eliminate, and on success it holds the ordering found.
func orderSearch(adj []Set, eliminated Set, remaining int, fits func(bag Set) bool, failed map[string]bool, order []int) bool {
	if remaining == 0 {
		return true
	}
	key := eliminated.Key()
	if failed[key] {
		return false
	}
	try := func(v int) bool {
		nb, ok := liveBag(adj, eliminated, v, fits)
		if !ok {
			return false
		}
		added := eliminate(adj, eliminated, v, nb)
		if order != nil {
			order[len(order)-remaining] = v
		}
		ok = orderSearch(adj, eliminated, remaining-1, fits, failed, order)
		undo(adj, eliminated, v, added)
		return ok
	}
	// The simplicial vertex rule: a vertex whose bag fits and whose live
	// neighbourhood is already a clique can be eliminated first without
	// loss of generality, so it is the only one tried.
	n := len(adj)
	forced := -1
	for v := 0; v < n && forced < 0; v++ {
		if eliminated.Has(v) {
			continue
		}
		if nb, ok := liveBag(adj, eliminated, v, fits); ok && isClique(adj, nb) {
			forced = v
		}
	}
	ok := false
	if forced >= 0 {
		ok = try(forced)
	} else {
		for v := 0; v < n && !ok; v++ {
			ok = !eliminated.Has(v) && try(v)
		}
	}
	if !ok {
		failed[key] = true
	}
	return ok
}

// liveBag returns the live neighbourhood of v and whether v's bag, v
// together with that neighbourhood, fits.
func liveBag(adj []Set, eliminated Set, v int, fits func(bag Set) bool) (Set, bool) {
	nb := adj[v].Subtract(eliminated)
	nb.Add(v)
	ok := fits(nb)
	nb.Remove(v)
	return nb, ok
}

type fillEdge struct{ u, v int }

// eliminate removes v and turns its live neighborhood nb into a clique,
// returning the fill edges added for undo.
func eliminate(adj []Set, eliminated Set, v int, nb Set) []fillEdge {
	var added []fillEdge
	elems := nb.Elements()
	for i, u := range elems {
		for _, w := range elems[i+1:] {
			if !adj[u].Has(w) {
				adj[u].Add(w)
				adj[w].Add(u)
				added = append(added, fillEdge{u, w})
			}
		}
	}
	eliminated.Add(v)
	return added
}

func undo(adj []Set, eliminated Set, v int, added []fillEdge) {
	eliminated.Remove(v)
	for _, e := range added {
		adj[e.u].Remove(e.v)
		adj[e.v].Remove(e.u)
	}
}

func isClique(adj []Set, vs Set) bool {
	elems := vs.Elements()
	for i, u := range elems {
		for _, w := range elems[i+1:] {
			if !adj[u].Has(w) {
				return false
			}
		}
	}
	return true
}

// eliminationTree replays the elimination of order on h's primal graph
// and returns its bag tree. eliminated holds the vertices eliminated
// before order, none of which may have a neighbour; the replay adds order
// to it. Node i is the bag of order[i]: the vertex with its live
// neighbourhood. Its parent is the node of the earliest-eliminated other
// vertex in the bag; the first node left without one is the root, and
// every later such node is hung under it.
func (h *Hypergraph) eliminationTree(order []int, eliminated Set) (bags []Set, parent []int) {
	adj := h.adjacency()
	pos := make([]int, h.NumVertices())
	bags = make([]Set, len(order))
	for i, v := range order {
		pos[v] = i
		nb := adj[v].Subtract(eliminated)
		eliminate(adj, eliminated, v, nb)
		nb.Add(v)
		bags[i] = nb
	}
	parent = make([]int, len(order))
	root := -1
	for i, v := range order {
		parent[i] = -1
		for _, u := range bags[i].Elements() {
			if u != v && (parent[i] < 0 || pos[u] < parent[i]) {
				parent[i] = pos[u]
			}
		}
		if parent[i] < 0 {
			if root < 0 {
				root = i
			} else {
				parent[i] = root
			}
		}
	}
	return bags, parent
}
