package hypergraph

// ghw1ViaSearch decides ghw <= 1 with the elimination-order search,
// bypassing the GYO shortcut. Used to cross-validate the two algorithms.
func (h *Hypergraph) ghw1ViaSearch() bool {
	return len(h.edges) <= 1 || h.hwSearch(1, nil)
}
