package hypergraph

// Generalized hypertree width (called simply "hypertreewidth" in Section 3.1
// of the paper, following its remark on terminology). We decide ghw(h) ≤ k
// exactly via the chordalization characterization: a graph admits a tree
// decomposition with all bags from a downward-closed family F iff it has an
// elimination ordering in which, for every eliminated vertex, the vertex
// together with its current fill-neighborhood lies in F. For ghw, F is
// "coverable by at most k hyperedges".

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
	if len(h.edges) <= k {
		return true
	}
	// Vertices in no edge never constrain a decomposition; restrict to
	// covered vertices.
	n := h.NumVertices()
	adj := h.adjacency()
	covered := NewSet(n)
	for _, e := range h.edges {
		covered.UnionWith(e)
	}
	eliminated := h.AllVertices()
	eliminated.SubtractWith(covered)
	memo := make(map[string]bool)
	allow := func(bag Set) bool { return h.coverableBy(bag, k) }
	return fWidthSearch(adj, eliminated, covered.Len(), allow, memo)
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

// fWidthSearch reports whether the live graph admits an elimination ordering
// whose every bag (vertex + live fill-neighborhood) satisfies allow.
func fWidthSearch(adj []Set, eliminated Set, remaining int, allow func(Set) bool, memo map[string]bool) bool {
	if remaining == 0 {
		return true
	}
	key := eliminated.Key()
	if v, ok := memo[key]; ok {
		return v
	}
	n := len(adj)
	result := false
	try := func(v int) bool {
		nb := adj[v].Subtract(eliminated)
		bag := nb.Clone()
		bag.Add(v)
		if !allow(bag) {
			return false
		}
		added := eliminate(adj, eliminated, v, nb)
		ok := fWidthSearch(adj, eliminated, remaining-1, allow, memo)
		undo(adj, eliminated, v, added)
		return ok
	}
	// Simplicial vertices with an allowed bag can be eliminated first.
	forced := -1
	for v := 0; v < n && forced < 0; v++ {
		if eliminated.Has(v) {
			continue
		}
		nb := adj[v].Subtract(eliminated)
		bag := nb.Clone()
		bag.Add(v)
		if isClique(adj, eliminated, nb) && allow(bag) {
			forced = v
		}
	}
	if forced >= 0 {
		result = try(forced)
	} else {
		for v := 0; v < n; v++ {
			if eliminated.Has(v) {
				continue
			}
			if try(v) {
				result = true
				break
			}
		}
	}
	memo[key] = result
	return result
}

// coverableBy reports whether the vertex set vs is contained in the union of
// at most k hyperedges of h, by exact branch-on-uncovered-vertex search.
func (h *Hypergraph) coverableBy(vs Set, k int) bool {
	if vs.Empty() {
		return true
	}
	if k == 0 {
		return false
	}
	v := vs.First()
	for _, e := range h.edges {
		if !e.Has(v) {
			continue
		}
		rest := vs.Subtract(e)
		if h.coverableBy(rest, k-1) {
			return true
		}
	}
	return false
}
