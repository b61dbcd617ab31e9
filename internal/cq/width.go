package cq

import (
	"fmt"

	"wdpt/internal/hypergraph"
)

// AtomsHypergraph builds the hypergraph of a set of atoms.
func AtomsHypergraph(atoms []Atom) *hypergraph.Hypergraph {
	h := hypergraph.New(AtomsVars(atoms))
	for _, a := range atoms {
		h.AddEdge(a.Vars())
	}
	return h
}

// Class is a syntactically defined class of conjunctive queries, such as
// TW(k) or HW(k), membership in which guarantees tractable evaluation.
type Class interface {
	// Name returns a short identifier such as "TW(2)".
	Name() string
	// Contains reports whether the query belongs to the class.
	Contains(q *CQ) bool
	// ContainsAtoms reports membership of the Boolean query over atoms.
	ContainsAtoms(atoms []Atom) bool
	// SubqueryClosed reports whether the class is closed under taking
	// arbitrary subsets of atoms. TW(k) and HW'(k) are; HW(k) is not
	// (Section 5).
	SubqueryClosed() bool
}

// TW returns the class TW(k) of CQs of treewidth at most k.
func TW(k int) Class { return twClass(k) }

// HW returns the class HW(k) of CQs of (generalized) hypertreewidth at most
// k. HW(1) is the class of acyclic CQs.
func HW(k int) Class { return hwClass(k) }

// HWPrime returns the class HW'(k) of CQs all of whose subqueries have
// hypertreewidth at most k (β-hypertreewidth ≤ k); see Section 5.
func HWPrime(k int) Class { return hwPrimeClass(k) }

type twClass int

func (k twClass) Name() string { return fmt.Sprintf("TW(%d)", int(k)) }
func (k twClass) Contains(q *CQ) bool {
	return k.ContainsAtoms(q.atoms)
}
func (k twClass) ContainsAtoms(atoms []Atom) bool {
	return AtomsHypergraph(atoms).TreewidthAtMost(int(k))
}
func (k twClass) SubqueryClosed() bool { return true }

type hwClass int

func (k hwClass) Name() string { return fmt.Sprintf("HW(%d)", int(k)) }
func (k hwClass) Contains(q *CQ) bool {
	return k.ContainsAtoms(q.atoms)
}
func (k hwClass) ContainsAtoms(atoms []Atom) bool {
	return AtomsHypergraph(atoms).GeneralizedHypertreewidthAtMost(int(k))
}
func (k hwClass) SubqueryClosed() bool { return false }

type hwPrimeClass int

func (k hwPrimeClass) Name() string { return fmt.Sprintf("HW'(%d)", int(k)) }
func (k hwPrimeClass) Contains(q *CQ) bool {
	return k.ContainsAtoms(q.atoms)
}
func (k hwPrimeClass) ContainsAtoms(atoms []Atom) bool {
	return AtomsHypergraph(atoms).BetaHypertreewidthAtMost(int(k))
}
func (k hwPrimeClass) SubqueryClosed() bool { return true }

// EquivalentInClass reports whether q is equivalent to some CQ in the class
// and, if so, returns a witness. For subquery-closed classes (TW(k),
// HW'(k)) the test is exactly "core(q) ∈ C" ([Dalmau, Kolaitis, Vardi 2002]):
// the core is the witness. For HW(k) the core test is sound but the
// procedure additionally searches quotient images, since the class is not
// closed under substructures.
func EquivalentInClass(q *CQ, c Class) (*CQ, bool) {
	core := Core(q)
	if c.Contains(core) {
		return core, true
	}
	if c.SubqueryClosed() {
		// For subquery-closed classes the core characterization is
		// complete: if q ≡ q' ∈ C then core(q) = core(q') is a subquery
		// of q' and hence in C.
		return nil, false
	}
	var witness *CQ
	Quotients(q, func(img *CQ, _ Mapping) bool {
		if c.Contains(img) && Equivalent(q, img) {
			witness = img
			return false
		}
		return true
	})
	return witness, witness != nil
}
