// Package hypergraph implements the hypergraph machinery of Section 3.1 of
// Barceló & Pichler (PODS 2015): hypergraphs of conjunctive queries, tree
// decompositions and treewidth, GYO acyclicity and join trees, generalized
// hypertree decompositions and hypertreewidth, and β-acyclicity. Vertices
// are identified by string names (query variables) and internally handled as
// bitset indices.
package hypergraph

import (
	"fmt"
	"sort"
	"strings"
)

// Hypergraph is a pair (V, E) of named vertices and hyperedges over them.
type Hypergraph struct {
	names []string
	index map[string]int
	edges []Set
}

// New returns a hypergraph over the given vertex names (duplicates are
// collapsed) with no edges.
func New(vertices []string) *Hypergraph {
	h := &Hypergraph{index: make(map[string]int)}
	for _, v := range vertices {
		if _, ok := h.index[v]; !ok {
			h.index[v] = len(h.names)
			h.names = append(h.names, v)
		}
	}
	return h
}

// AddEdge adds the hyperedge over the named vertices, which must already be
// vertices of the hypergraph. Empty edges are ignored; duplicate edges are
// kept (they never change any width).
func (h *Hypergraph) AddEdge(vertices []string) {
	if len(vertices) == 0 {
		return
	}
	e := NewSet(len(h.names))
	for _, v := range vertices {
		i, ok := h.index[v]
		if !ok {
			// documented contract: vertices must be added before edges
			panic(fmt.Sprintf("hypergraph: unknown vertex %q", v))
		}
		e.Add(i)
	}
	h.edges = append(h.edges, e)
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return len(h.names) }

// edgeVertices returns the vertex names of edge i, sorted.
func (h *Hypergraph) edgeVertices(i int) []string {
	elems := h.edges[i].Elements()
	out := make([]string, len(elems))
	for j, e := range elems {
		out[j] = h.names[e]
	}
	sort.Strings(out)
	return out
}

// AllVertices returns the set of all vertex indices.
func (h *Hypergraph) AllVertices() Set {
	s := NewSet(len(h.names))
	for i := range h.names {
		s.Add(i)
	}
	return s
}

// adjacency returns the primal-graph adjacency: adj[i] is the set of
// vertices sharing an edge with i (excluding i itself).
func (h *Hypergraph) adjacency() []Set {
	adj := make([]Set, len(h.names))
	for i := range adj {
		adj[i] = NewSet(len(h.names))
	}
	for _, e := range h.edges {
		for _, u := range e.Elements() {
			adj[u].UnionWith(e)
		}
	}
	for i := range adj {
		adj[i].Remove(i)
	}
	return adj
}

// String renders the hypergraph as "{a,b,c} {c,d}" with sorted edges.
func (h *Hypergraph) String() string {
	parts := make([]string, len(h.edges))
	for i := range h.edges {
		parts[i] = "{" + strings.Join(h.edgeVertices(i), ",") + "}"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Decomposition is a tree decomposition (S, ν): a tree over bag nodes where
// each bag is a set of vertex names. Parent[i] is the parent node of node
// i; exactly one node, the root, has Parent -1, and it need not be node 0:
// the min-fill TreeDecomposition of the path a–b–c has parents [1 2 -1].
type Decomposition struct {
	Bags   [][]string
	Parent []int
}

// Width returns max |bag| - 1, the width of the decomposition.
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// Validate checks the tree-decomposition conditions against h: every edge is
// covered by some bag and every vertex induces a connected subtree.
func (d *Decomposition) Validate(h *Hypergraph) error {
	bagSets := make([]Set, len(d.Bags))
	for i, b := range d.Bags {
		s := NewSet(h.NumVertices())
		for _, v := range b {
			idx, ok := h.index[v]
			if !ok {
				return fmt.Errorf("hypergraph: bag %d mentions unknown vertex %q", i, v)
			}
			s.Add(idx)
		}
		bagSets[i] = s
	}
	for ei, e := range h.edges {
		covered := false
		for _, b := range bagSets {
			if e.SubsetOf(b) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("hypergraph: edge %d (%v) not covered by any bag", ei, h.edgeVertices(ei))
		}
	}
	// Connectedness: for each vertex, the nodes containing it must form a
	// connected subtree. We check that the occurrence set minus one
	// occurrence closest to the root is reachable through occurrences.
	for v := range h.names {
		var occ []int
		for i, b := range bagSets {
			if b.Has(v) {
				occ = append(occ, i)
			}
		}
		if len(occ) <= 1 {
			continue
		}
		occSet := make(map[int]bool, len(occ))
		for _, i := range occ {
			occSet[i] = true
		}
		// For every occurrence except the top-most one, its parent must
		// also be an occurrence once we contract chains of non-occurrences:
		// in a tree, the occurrence set is connected iff exactly one
		// occurrence has a parent outside the set.
		outside := 0
		for _, i := range occ {
			if p := d.Parent[i]; p == -1 || !occSet[p] {
				outside++
			}
		}
		if outside != 1 {
			return fmt.Errorf("hypergraph: vertex %q occurs in a disconnected set of bags", h.names[v])
		}
	}
	return nil
}
