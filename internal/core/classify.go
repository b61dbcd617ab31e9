package core

import (
	"fmt"
	"strings"

	"wdpt/internal/cq"
)

// Structural classifiers of Section 3: local tractability (ℓ-C), bounded
// interface (BI(c)), and global tractability (g-C).

// LocallyIn reports whether p is locally in the class c: every node label,
// read as a Boolean CQ, belongs to c (Section 3.2).
func (p *PatternTree) LocallyIn(c cq.Class) bool {
	for _, n := range p.nodes {
		if !c.ContainsAtoms(n.atoms) {
			return false
		}
	}
	return true
}

// InterfaceWidth returns the smallest c such that p ∈ BI(c): the maximum,
// over nodes t, of the number of variables occurring both in λ(t) and in
// the label of some child of t (Section 3.2).
func (p *PatternTree) InterfaceWidth() int {
	width := 0
	for _, n := range p.nodes {
		own := make(map[string]bool)
		for _, v := range n.Vars() {
			own[v] = true
		}
		shared := make(map[string]bool)
		for _, c := range n.children {
			for _, v := range c.Vars() {
				if own[v] {
					shared[v] = true
				}
			}
		}
		if len(shared) > width {
			width = len(shared)
		}
	}
	return width
}

// GloballyIn reports whether p is globally in the class c: for every
// subtree T' of T rooted in r, the CQ q_T' belongs to c (Section 3.3).
// For subquery-closed classes (TW(k), HW'(k)) this reduces to the single
// test q_T ∈ c; otherwise all subtrees are enumerated, which can be
// exponential in the size of T.
func (p *PatternTree) GloballyIn(c cq.Class) bool {
	if c.SubqueryClosed() {
		return c.ContainsAtoms(p.AllAtoms())
	}
	ok := true
	p.EnumerateSubtrees(func(s Subtree) bool {
		if !c.ContainsAtoms(p.SubtreeAtoms(s)) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Classification summarizes where a WDPT sits in the taxonomy of Section 3,
// as reported by cmd/wdptanalyze.
type Classification struct {
	Nodes          int
	Depth          int
	Size           int
	ProjectionFree bool
	InterfaceWidth int
	// LocalTW / LocalHW are the least k with p ∈ ℓ-TW(k) / ℓ-HW(k).
	LocalTW int
	LocalHW int
	// GlobalTW is the least k with p ∈ g-TW(k); GlobalHW the least k with
	// p ∈ g-HW(k) (searched up to a small bound, -1 if above it).
	GlobalTW int
	GlobalHW int
}

// maxWidthProbe bounds the k searched when computing least class indexes.
const maxWidthProbe = 8

// Classify computes the structural classification of p.
func (p *PatternTree) Classify() Classification {
	cl := Classification{
		Nodes:          p.NumNodes(),
		Depth:          p.Depth(),
		Size:           p.Size(),
		ProjectionFree: p.IsProjectionFree(),
		InterfaceWidth: p.InterfaceWidth(),
		LocalTW:        leastK(func(k int) bool { return p.LocallyIn(cq.TW(k)) }),
		LocalHW:        leastK(func(k int) bool { return p.LocallyIn(cq.HW(k)) }),
		GlobalTW:       leastK(func(k int) bool { return p.GloballyIn(cq.TW(k)) }),
		GlobalHW:       leastK(func(k int) bool { return p.GloballyIn(cq.HW(k)) }),
	}
	return cl
}

func leastK(pred func(int) bool) int {
	for k := 1; k <= maxWidthProbe; k++ {
		if pred(k) {
			return k
		}
	}
	return -1
}

// String renders the classification as a short multi-line report.
func (c Classification) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes:            %d\n", c.Nodes)
	fmt.Fprintf(&b, "depth:            %d\n", c.Depth)
	fmt.Fprintf(&b, "size:             %d\n", c.Size)
	fmt.Fprintf(&b, "projection-free:  %v\n", c.ProjectionFree)
	fmt.Fprintf(&b, "interface width:  %d  (p ∈ BI(%d))\n", c.InterfaceWidth, c.InterfaceWidth)
	fmt.Fprintf(&b, "local treewidth:  %d  (p ∈ ℓ-TW(%d))\n", c.LocalTW, c.LocalTW)
	fmt.Fprintf(&b, "local hw:         %d  (p ∈ ℓ-HW(%d))\n", c.LocalHW, c.LocalHW)
	fmt.Fprintf(&b, "global treewidth: %d  (p ∈ g-TW(%d))\n", c.GlobalTW, c.GlobalTW)
	fmt.Fprintf(&b, "global hw:        %d  (p ∈ g-HW(%d))", c.GlobalHW, c.GlobalHW)
	return b.String()
}
