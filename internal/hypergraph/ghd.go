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

// Width returns the maximum cover size.
func (g *GHD) Width() int {
	w := 0
	for _, c := range g.Covers {
		if len(c) > w {
			w = len(c)
		}
	}
	return w
}

// GeneralizedHypertreeDecomposition computes a GHD of width at most k, or
// ok=false if ghw(h) > k. The search mirrors GeneralizedHypertreewidthAtMost
// but records a successful elimination ordering and rebuilds the bag tree
// from it (the same construction as TreeDecomposition).
func (h *Hypergraph) GeneralizedHypertreeDecomposition(k int) (*GHD, bool) {
	n := h.NumVertices()
	if k <= 0 {
		return nil, false
	}
	if len(h.edges) == 0 {
		return &GHD{Bags: [][]string{{}}, Covers: [][]int{{}}, Parent: []int{-1}}, true
	}
	adj := h.adjacency()
	covered := NewSet(n)
	for _, e := range h.edges {
		covered.UnionWith(e)
	}
	eliminated := h.AllVertices()
	eliminated.SubtractWith(covered)
	var isolated []int
	for _, v := range eliminated.Elements() {
		isolated = append(isolated, v)
	}
	memo := make(map[string]bool)
	var order []int
	if !orderedFWidthSearch(adj, eliminated, covered.Len(),
		func(bag Set) bool { return h.coverableBy(bag, k) }, memo, &order) {
		return nil, false
	}
	// Rebuild the fill process along the recorded order, materializing bags.
	adj = h.adjacency()
	elim := NewSet(n)
	for _, v := range isolated {
		elim.Add(v)
	}
	type bagInfo struct {
		vertex int
		bag    Set
	}
	infos := make([]bagInfo, 0, len(order))
	for _, v := range order {
		nb := adj[v].Subtract(elim)
		bag := nb.Clone()
		bag.Add(v)
		infos = append(infos, bagInfo{vertex: v, bag: bag})
		eliminate(adj, elim, v, nb)
	}
	pos := make(map[int]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	g := &GHD{
		Bags:   make([][]string, len(infos)),
		Covers: make([][]int, len(infos)),
		Parent: make([]int, len(infos)),
	}
	for i, info := range infos {
		g.Bags[i] = h.namesOf(info.bag)
		cover, ok := h.coverOf(info.bag, k)
		if !ok {
			// The search accepted this bag, so a cover must exist.
			// unreachable invariant violation: acceptance implies a cover
			panic("hypergraph: accepted bag has no cover")
		}
		g.Covers[i] = cover
		parent := -1
		best := len(order) + 1
		for _, u := range info.bag.Elements() {
			if u == info.vertex {
				continue
			}
			if p := pos[u]; p < best {
				best = p
				parent = p
			}
		}
		g.Parent[i] = parent
	}
	root := -1
	for i := range g.Parent {
		if g.Parent[i] == -1 {
			if root == -1 {
				root = i
			} else {
				g.Parent[i] = root
			}
		}
	}
	return g, true
}

// coverOf returns edge indices covering vs with at most k edges.
func (h *Hypergraph) coverOf(vs Set, k int) ([]int, bool) {
	if vs.Empty() {
		return []int{}, true
	}
	if k == 0 {
		return nil, false
	}
	v := vs.First()
	for i, e := range h.edges {
		if !e.Has(v) {
			continue
		}
		rest, ok := h.coverOf(vs.Subtract(e), k-1)
		if ok {
			return append([]int{i}, rest...), true
		}
	}
	return nil, false
}

// orderedFWidthSearch is fWidthSearch additionally returning, through
// order, a successful elimination sequence.
func orderedFWidthSearch(adj []Set, eliminated Set, remaining int, allow func(Set) bool, memo map[string]bool, order *[]int) bool {
	if remaining == 0 {
		return true
	}
	key := eliminated.Key()
	if v, ok := memo[key]; ok && !v {
		return false
	}
	n := len(adj)
	try := func(v int) bool {
		nb := adj[v].Subtract(eliminated)
		bag := nb.Clone()
		bag.Add(v)
		if !allow(bag) {
			return false
		}
		added := eliminate(adj, eliminated, v, nb)
		*order = append(*order, v)
		if orderedFWidthSearch(adj, eliminated, remaining-1, allow, memo, order) {
			return true
		}
		*order = (*order)[:len(*order)-1]
		undo(adj, eliminated, v, added)
		return false
	}
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
		if try(forced) {
			return true
		}
		memo[key] = false
		return false
	}
	for v := 0; v < n; v++ {
		if eliminated.Has(v) {
			continue
		}
		if try(v) {
			return true
		}
	}
	memo[key] = false
	return false
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
