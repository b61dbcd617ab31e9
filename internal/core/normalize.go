package core

import (
	"fmt"

	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/obs"
)

// PruneNonProjecting returns the tree with every branch removed whose
// subtree introduces no free variable — where a node introduces a free
// variable when it mentions one that its parent does not (the node set N of
// the proof of Lemma 1). The transformation is answer-preserving:
// extensions into such branches never enlarge the projection to x̄, and by
// well-designedness they cannot enable or disable extensions elsewhere, so
// p(D) and p_m(D) are unchanged for every database (property-tested). The
// root is always kept. If nothing can be pruned, p itself is returned.
func (p *PatternTree) PruneNonProjecting() *PatternTree {
	free := p.FreeSet()
	projecting := make([]bool, len(p.nodes))
	var mark func(n *Node) bool
	mark = func(n *Node) bool {
		keep := false
		parentVars := make(map[string]bool)
		if n.parent != nil {
			for _, v := range n.parent.Vars() {
				parentVars[v] = true
			}
		}
		for _, v := range n.Vars() {
			if free[v] && !parentVars[v] {
				keep = true
				break
			}
		}
		for _, c := range n.children {
			if mark(c) {
				keep = true
			}
		}
		projecting[n.id] = keep
		return keep
	}
	mark(p.root)
	pruned := false
	var spec func(n *Node) NodeSpec
	spec = func(n *Node) NodeSpec {
		s := NodeSpec{Atoms: append([]cq.Atom(nil), n.atoms...)}
		for _, c := range n.children {
			if projecting[c.id] {
				s.Children = append(s.Children, spec(c))
			} else {
				pruned = true
			}
		}
		return s
	}
	rootSpec := spec(p.root)
	if !pruned {
		return p
	}
	return MustNew(rootSpec, p.free)
}

// lemma1 returns the pruned form of p (PruneNonProjecting), computing it
// once per tree. The pruned form of a pruned tree is that tree itself.
func (p *PatternTree) lemma1() *PatternTree {
	p.pruneOnce.Do(func() {
		q := p.PruneNonProjecting()
		if q != p {
			q.pruneOnce.Do(func() { q.pruned = q })
		}
		p.pruned = q
	})
	return p.pruned
}

// ExplainNodes returns the engine's plan for every node of the tree in
// preorder, labeled "node <id>" — the structured form behind
// wdpteval -explain. Each node's atoms form one conjunctive query, which is
// exactly the granularity at which the Section 3 algorithms invoke the
// engine.
func (p *PatternTree) ExplainNodes(d *db.Database, eng cqeval.Engine) []obs.Plan {
	plans := make([]obs.Plan, 0, len(p.nodes))
	for _, n := range p.nodes {
		pl := eng.Explain(n.atoms, d, nil)
		pl.Label = fmt.Sprintf("node %d", n.id)
		plans = append(plans, pl)
	}
	return plans
}
