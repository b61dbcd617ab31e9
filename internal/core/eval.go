package core

import (
	"fmt"
	"slices"

	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// This file implements the semantics of WDPTs (Definition 2) and the three
// decision problems of Section 3:
//
//	EVAL          — is h ∈ p(D)?            (Σ₂ᴾ-complete in general)
//	PARTIAL-EVAL  — is h ⊑ h' for some h' ∈ p(D)?   (tractable under g-C(k), Thm 8)
//	MAX-EVAL      — is h ∈ p_m(D)?          (tractable under g-C(k), Thm 9)
//
// Two EVAL engines are provided: a naive subtree-enumeration baseline and
// the interface-relation algorithm behind Theorems 6 and 7, which runs in
// polynomial time on locally tractable WDPTs of bounded interface.

// extUnit is a minimal downward extension of a subtree: a chain of nodes
// below the subtree whose last node is the first on its path to introduce a
// variable outside the subtree. A homomorphism on a subtree is maximal iff
// no extension unit of the subtree admits a consistent homomorphism.
//
// bound is the unit's fixed domain: the variables it shares with the
// subtree, in cq.AtomsVars order over the unit's atoms; proj is what the
// rest of an expansion reads of its other variables (keptVars). compiled
// and xfer serve the maximality check, which re-tests the same unit under
// every candidate homomorphism of the subtree: compiled is the unit's
// atoms compiled against bound, and xfer maps each entry of bound to its
// slot in the subtree's variable layout (cq.AtomsVars order over the
// subtree atoms), so a candidate's relevant bindings transfer as raw IDs.
// boundAt is the tree slots of bound.
type extUnit struct {
	nodes    []*Node
	atoms    []cq.Atom
	bound    []string
	proj     []string
	compiled *cq.CompiledAtoms
	xfer     []int
	boundAt  []int
}

// extensionUnits computes the extension units of the subtree s. The result
// is memoized on the tree's subtree cache: maximality is re-checked for the
// same subtree under every candidate homomorphism, and the units depend
// only on the (immutable) tree structure and the subtree's node set.
func (p *PatternTree) extensionUnits(s Subtree) []extUnit {
	info := p.subtreeInfoOf(s)
	if cached := info.units.Load(); cached != nil {
		return *cached
	}
	units := p.computeExtensionUnits(s, info.vars)
	info.units.CompareAndSwap(nil, &units)
	if cached := info.units.Load(); cached != nil {
		return *cached
	}
	return units
}

// computeExtensionUnits is the uncached extension-unit construction.
func (p *PatternTree) computeExtensionUnits(s Subtree, svars []string) []extUnit {
	inS := make(map[string]bool, len(svars))
	slotInS := make(map[string]int, len(svars))
	for i, v := range svars {
		inS[v] = true
		slotInS[v] = i
	}
	var units []extUnit
	var dfs func(n *Node, chainNodes []*Node, chainAtoms []cq.Atom)
	dfs = func(n *Node, chainNodes []*Node, chainAtoms []cq.Atom) {
		chainNodes = append(append([]*Node(nil), chainNodes...), n)
		chainAtoms = append(append([]cq.Atom(nil), chainAtoms...), n.atoms...)
		fresh := false
		for _, v := range n.Vars() {
			if !inS[v] {
				fresh = true
				break
			}
		}
		if fresh {
			var fdom, unbound []string
			for _, v := range cq.AtomsVars(chainAtoms) {
				if inS[v] {
					fdom = append(fdom, v)
				} else {
					unbound = append(unbound, v)
				}
			}
			u := extUnit{
				nodes:    chainNodes,
				atoms:    chainAtoms,
				bound:    fdom,
				proj:     p.keptVars(chainNodes, unbound),
				compiled: cq.CompileAtoms(chainAtoms, fdom),
				xfer:     make([]int, len(fdom)),
				boundAt:  p.slots(fdom),
			}
			for i, v := range fdom {
				u.xfer[i] = slotInS[v]
			}
			units = append(units, u)
			return
		}
		for _, c := range n.children {
			dfs(c, chainNodes, chainAtoms)
		}
	}
	for _, n := range p.nodes {
		if !s.Has(n.id) && n.parent != nil && s.Has(n.parent.id) {
			dfs(n, nil, nil)
		}
	}
	return units
}

// keptVars returns the variables of vars that the rest of an expansion
// reads once nodes join the subtree: the free ones, and those mentioned by
// a child of one of nodes that is not itself in nodes. Two homomorphisms
// that agree on these expand identically. The answer reads only the free
// variables. A later unit reads only the variables it shares with the
// subtree it extends, and by well-designedness each such variable v also
// occurs in the unit's first node f. Take the topmost node mentioning v
// and the nodes N it joined the subtree with (the root, or one unit): the
// path from it down to f mentions v all along, and it leaves N at a child,
// outside N, of a node of N. So v was kept when it was bound.
func (p *PatternTree) keptVars(nodes []*Node, vars []string) []string {
	var out []string
	for _, v := range vars {
		if slices.Contains(p.free, v) || slices.ContainsFunc(nodes, func(n *Node) bool {
			return slices.ContainsFunc(n.children, func(c *Node) bool {
				return !slices.Contains(nodes, c) && slices.Contains(c.vars, v)
			})
		}) {
			out = append(out, v)
		}
	}
	return out
}

// isMaximalHom reports whether the homomorphism held in the solver
// assignment a — defined on exactly the variables of the subtree the units
// belong to, in the subtree's cq.AtomsVars slot order, which the units'
// xfer tables were built against — is maximal: none of the subtree's
// extension units can be satisfied consistently with it. The units are
// passed in (extensionUnits of the subtree) so the band loop resolves the
// subtree cache once per band rather than per candidate, and the shared
// bindings transfer to each unit as raw dictionary IDs, so the
// per-candidate check costs no string round trip.
func (p *PatternTree) isMaximalHom(units []extUnit, d *db.Database, a cq.IDAssignment, chk *cq.Searcher, st *obs.Stats, m *guard.Meter) bool {
	st.Inc(obs.CtrMaximalityChecks)
	for i := range units {
		u := &units[i]
		st.Inc(obs.CtrExtensionUnits)
		if chk.SatisfiableAt(u.compiled, d, a.IDs, u.xfer, st, m) {
			return false
		}
	}
	return true
}

// evalBand prepares the subtree band [T', T”] for an exact-evaluation
// query: T' is the minimal subtree containing dom(h) and T” the maximal
// subtree adding no free variables outside dom(h). ok=false means h cannot
// possibly be an answer (it binds a non-free or non-occurring variable, or
// every subtree containing dom(h) has additional free variables).
func (p *PatternTree) evalBand(h cq.Mapping) (tmin, tmax Subtree, ok bool) {
	free := p.FreeSet()
	for v := range h {
		if !free[v] {
			return Subtree{}, Subtree{}, false
		}
	}
	tmin, ok = p.MinimalSubtreeContaining(h.Domain())
	if !ok || len(p.SubtreeFreeVars(tmin)) != len(h) {
		return Subtree{}, Subtree{}, false
	}
	allowed := make(map[string]bool, len(h))
	for v := range h {
		allowed[v] = true
	}
	tmax = p.MaximalSubtreeWithoutNewFree(tmin, allowed)
	return tmin, tmax, true
}

// evalNaive is the band-enumeration baseline behind ModeExactNaive: it
// enumerates the subtrees between the minimal subtree of dom(h) and the
// maximal subtree without new free variables, searches homomorphisms
// consistent with h, and checks maximality. Correct for every WDPT;
// exponential in |p|. The meter checkpoints once per enumerated band so
// deadlines and cancellation interrupt the exponential subtree enumeration
// between bands.
func (p *PatternTree) evalNaive(d *db.Database, h cq.Mapping, st *obs.Stats, m *guard.Meter) bool {
	tmin, tmax, ok := p.evalBand(h)
	if !ok {
		return false
	}
	found := false
	var chk cq.Searcher
	p.enumerateBand(tmin, tmax, func(s Subtree) bool {
		m.Checkpoint()
		st.Inc(obs.CtrBandsEnumerated)
		units := p.extensionUnits(s)
		cq.HomomorphismsIDsObs(p.SubtreeAtoms(s), d, h, st, m, func(g cq.IDAssignment) bool {
			// g is defined on vars(s) ⊆ the allowed region, so its free
			// projection is exactly h; it remains to check maximality.
			if p.isMaximalHom(units, d, g, &chk, st, m) {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// partialEval decides PARTIAL-EVAL (Section 3.3) behind ModePartial: is
// there h' ∈ p(D) with h ⊑ h'?
// Following the proof of Theorem 8, it suffices to find any homomorphism on
// the minimal subtree containing dom(h) consistent with h; the CQ test is
// delegated to the engine, so the whole check runs in polynomial time when
// the WDPT is globally tractable and the engine is decomposition-guided.
func (p *PatternTree) partialEval(d *db.Database, h cq.Mapping, eng cqeval.Engine) bool {
	free := p.FreeSet()
	for v := range h {
		if !free[v] {
			return false
		}
	}
	tmin, ok := p.MinimalSubtreeContaining(h.Domain())
	if !ok {
		return false
	}
	return eng.Satisfiable(p.SubtreeAtoms(tmin), d, h)
}

// PartialEvalEnumerate is the ablation baseline for PARTIAL-EVAL: it
// enumerates all rooted subtrees containing dom(h) instead of using the
// minimal-subtree characterization.
func (p *PatternTree) PartialEvalEnumerate(d *db.Database, h cq.Mapping) bool {
	free := p.FreeSet()
	for v := range h {
		if !free[v] {
			return false
		}
	}
	tmin, ok := p.MinimalSubtreeContaining(h.Domain())
	if !ok {
		return false
	}
	found := false
	p.enumerateBand(tmin, p.FullSubtree(), func(s Subtree) bool {
		if cq.Satisfiable(p.SubtreeAtoms(s), d, h) {
			found = true
			return false
		}
		return true
	})
	return found
}

// ProperExtensionExists reports whether some answer h' ∈ p(D) properly
// subsumes h: equivalently, whether h extends to a homomorphism that is
// additionally defined on some further free variable. Used by MAX-EVAL and
// by the union variant ⋃-MAX-EVAL (Theorem 16).
func (p *PatternTree) ProperExtensionExists(d *db.Database, h cq.Mapping, eng cqeval.Engine) bool {
	free := p.FreeSet()
	for v := range h {
		if !free[v] {
			return false // no answer of p is defined on v, so none extends h
		}
	}
	for _, x := range p.free {
		if _, bound := h[x]; bound {
			continue
		}
		sub, ok := p.MinimalSubtreeContaining(append(h.Domain(), x))
		if !ok {
			continue // x does not occur in T; no answer is defined on it
		}
		if eng.Satisfiable(p.SubtreeAtoms(sub), d, h) {
			return true // h extends to an answer also defined on x
		}
	}
	return false
}

// evalInterface is the interface-relation algorithm behind ModeExact
// (Theorem 6): node-local homomorphisms are projected to their (bounded)
// interfaces, optional nodes below the answer region are classified as
// safely terminating or necessarily extending by a memoized bottom-up
// analysis, and nodes outside the region must be blocked. The algorithm is
// correct for every WDPT; its running time is polynomial when p is locally
// tractable with c-bounded interface and eng is decomposition-guided
// (Theorems 6 and 7). The evaluator is internally sequential — its row
// loops short-circuit and share the memo table — so parallelism reaches it
// only through the engine's plan phases.
func (p *PatternTree) evalInterface(d *db.Database, h cq.Mapping, eng cqeval.Engine) bool {
	tmin, tmax, ok := p.evalBand(h)
	if !ok {
		return false
	}
	e := &biEvaluator{
		p:    p,
		d:    d,
		h:    h,
		eng:  eng,
		st:   cqeval.StatsOf(eng),
		gm:   cqeval.MeterOf(eng),
		tmin: tmin,
		tmax: tmax,
		memo: make(map[string]bool),
	}
	return e.required(p.root, cq.Mapping{})
}

type biEvaluator struct {
	p          *PatternTree
	d          *db.Database
	h          cq.Mapping
	eng        cqeval.Engine
	st         *obs.Stats   // the engine's sink, shared for memo counters
	gm         *guard.Meter // the engine's meter, checkpointed per memo query
	tmin, tmax Subtree
	memo       map[string]bool
}

// interfaceVars returns the variables the node shares with its parent or any
// child, excluding those fixed by the query mapping h.
func (e *biEvaluator) interfaceVars(n *Node) []string {
	own := make(map[string]bool)
	for _, v := range n.Vars() {
		own[v] = true
	}
	shared := make(map[string]bool)
	mark := func(other *Node) {
		for _, v := range other.Vars() {
			if own[v] {
				shared[v] = true
			}
		}
	}
	if n.parent != nil {
		mark(n.parent)
	}
	for _, c := range n.children {
		mark(c)
	}
	var out []string
	for _, v := range n.Vars() {
		if shared[v] {
			if _, fixed := e.h[v]; !fixed {
				out = append(out, v)
			}
		}
	}
	return out
}

// childInterface restricts the combined assignment to the variables shared
// between n and child c (those not fixed by h).
func (e *biEvaluator) childInterface(n, c *Node, full cq.Mapping) cq.Mapping {
	own := make(map[string]bool)
	for _, v := range c.Vars() {
		own[v] = true
	}
	out := cq.Mapping{}
	for _, v := range n.Vars() {
		if own[v] {
			if val, ok := full[v]; ok {
				out[v] = val
			}
		}
	}
	return out
}

// fixedWith merges the global mapping h with an interface assignment.
func (e *biEvaluator) fixedWith(iface cq.Mapping) cq.Mapping {
	out := e.h.Clone()
	for k, v := range iface {
		out[k] = v
	}
	return out
}

// required handles nodes of the minimal subtree T': the node must be
// included, a local homomorphism consistent with the interface must exist,
// and all children must in turn be satisfiable as required / safe / blocked
// according to their region.
func (e *biEvaluator) required(n *Node, iface cq.Mapping) bool {
	e.gm.Checkpoint()
	key := fmt.Sprintf("R%d|%s", n.id, iface.Key())
	if v, ok := e.memo[key]; ok {
		e.st.Inc(obs.CtrInterfaceMemoHits)
		return v
	}
	e.st.Inc(obs.CtrInterfaceMemoMisses)
	result := false
	rows := e.eng.Project(n.atoms, e.d, e.fixedWith(iface), e.interfaceVars(n))
	for _, g := range rows {
		if e.childrenOK(n, g.Union(iface)) {
			result = true
			break
		}
	}
	e.memo[key] = result
	return result
}

// safe handles optional nodes in T” \ T': either the node cannot be
// entered at all under the interface (the maximal extension stops above it)
// or it can be entered by some local homomorphism whose children are again
// all safe or blocked.
func (e *biEvaluator) safe(n *Node, iface cq.Mapping) bool {
	e.gm.Checkpoint()
	key := fmt.Sprintf("S%d|%s", n.id, iface.Key())
	if v, ok := e.memo[key]; ok {
		e.st.Inc(obs.CtrInterfaceMemoHits)
		return v
	}
	e.st.Inc(obs.CtrInterfaceMemoMisses)
	rows := e.eng.Project(n.atoms, e.d, e.fixedWith(iface), e.interfaceVars(n))
	result := false
	if len(rows) == 0 {
		result = true // blocked: no extension into n is possible
	} else {
		for _, g := range rows {
			if e.childrenOK(n, g.Union(iface)) {
				result = true
				break
			}
		}
	}
	e.memo[key] = result
	return result
}

// blocked handles nodes outside T”: entering them would define the answer
// on a new free variable, so no consistent local homomorphism may exist.
func (e *biEvaluator) blocked(n *Node, iface cq.Mapping) bool {
	e.gm.Checkpoint()
	key := fmt.Sprintf("B%d|%s", n.id, iface.Key())
	if v, ok := e.memo[key]; ok {
		e.st.Inc(obs.CtrInterfaceMemoHits)
		return v
	}
	e.st.Inc(obs.CtrInterfaceMemoMisses)
	result := !e.eng.Satisfiable(n.atoms, e.d, e.fixedWith(iface))
	e.memo[key] = result
	return result
}

func (e *biEvaluator) childrenOK(n *Node, full cq.Mapping) bool {
	for _, c := range n.children {
		iface := e.childInterface(n, c, full)
		switch {
		case e.tmin.Has(c.id):
			if !e.required(c, iface) {
				return false
			}
		case e.tmax.Has(c.id):
			if !e.safe(c, iface) {
				return false
			}
		default:
			if !e.blocked(c, iface) {
				return false
			}
		}
	}
	return true
}
