package cq

import "wdpt/internal/db"

// Checks that only tests call: independent restatements of what the
// package computes, and small conveniences for building test inputs.

// countHomomorphisms returns the number of homomorphisms from atoms to D
// consistent with fixed.
func countHomomorphisms(atoms []Atom, d *db.Database, fixed Mapping) int {
	n := 0
	Homomorphisms(atoms, d, fixed, func(Mapping) bool {
		n++
		return true
	})
	return n
}

// isCore reports whether q is its own core: every endomorphism fixing the
// free variables is surjective on atoms.
func isCore(q *CQ) bool {
	atoms := DedupAtoms(q.atoms)
	if len(atoms) != len(q.atoms) {
		return false
	}
	_, changed := foldOnce(atoms, q.free)
	return !changed
}

// isApproximationInClass reports whether cand is a C-approximation of q:
// cand ∈ C, cand ⊆ q, and no quotient image of q in C lies strictly
// between them. It checks ApproximationsInClass without its maximality
// filter.
func isApproximationInClass(cand, q *CQ, c Class) bool {
	if !c.Contains(Core(cand)) || !ContainedIn(cand, q) {
		return false
	}
	better := false
	Quotients(q, func(img *CQ, _ Mapping) bool {
		core := Core(img)
		if !c.Contains(core) {
			return true
		}
		if ContainedIn(cand, core) && ContainedIn(core, q) && !ContainedIn(core, cand) {
			better = true
			return false
		}
		return true
	})
	return !better
}

// properlySubsumed reports h ⊏ h': h ⊑ h' and not h' ⊑ h.
func properlySubsumed(h, hp Mapping) bool {
	return h.SubsumedBy(hp) && !hp.SubsumedBy(h)
}

// evaluateOn evaluates q over a database given as ground atoms.
func evaluateOn(q *CQ, facts []Atom) []Mapping {
	d := db.New()
	for _, a := range facts {
		vals := make([]string, len(a.Args))
		for i, t := range a.Args {
			if t.IsVar() {
				panic("cq: evaluateOn requires ground atoms")
			}
			vals[i] = t.Value()
		}
		d.Insert(a.Rel, vals...)
	}
	return q.Evaluate(d)
}
