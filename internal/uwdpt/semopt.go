package uwdpt

import (
	"fmt"

	"wdpt/internal/core"
	"wdpt/internal/cq"
)

// Semantic optimization and approximation of UWDPTs (Section 6). The key
// tool is Proposition 9: φ is subsumption-equivalent to its CQ translation
// φ_cq, so membership in M(UWB(k)) and UWB(k)-approximation reduce to the
// corresponding — much easier — problems on unions of CQs.

// cqSubsumed reports q ⊑ q' in the name-based (mapping) subsumption order
// on CQs: every answer of q is subsumed by an answer of q'. The canonical
// database suffices: q ⊑ q' iff free(q) ⊆ free(q') and there is a
// homomorphism from q' to q fixing the free variables of q.
func cqSubsumed(q, qp *cq.CQ) bool {
	freeP := make(map[string]bool, len(qp.Free()))
	for _, x := range qp.Free() {
		freeP[x] = true
	}
	req := make(map[string]string, len(q.Free()))
	for _, x := range q.Free() {
		if !freeP[x] {
			return false // free(q) ⊄ free(q')
		}
		req[x] = x
	}
	return cq.HomToAtoms(qp.Atoms(), q.Atoms(), req)
}

// UCQReduce computes φ_cq^r (proof of Theorem 17): it removes every CQ that
// is subsumed by another CQ of the union, keeping one representative per
// equivalence class.
func UCQReduce(qs []*cq.CQ) []*cq.CQ {
	// CQ subsumption cannot fail, so neither can the frontier.
	out, _ := cq.Frontier(qs, func(q, qp *cq.CQ) (bool, error) { return cqSubsumed(q, qp), nil })
	return out
}

// MemberUWB decides membership of φ in M(UWB(k)) via Proposition 9 /
// Theorem 17: φ ∈ M(UWB(k)) iff every CQ of the reduced translation φ_cq^r
// is equivalent to a CQ in C(k). It returns the witnesses (the equivalent
// tractable CQs, which as single-node WDPTs form the union φ' of
// Theorem 17.2). maxCQs caps the subtree enumeration (0 = no cap); exact
// reports whether the cap was NOT hit, i.e. the answer is exact.
func MemberUWB(u *Union, c cq.Class, maxCQs int) (witnesses []*cq.CQ, member, exact bool) {
	translation := u.CQTranslation(maxCQs, nil)
	exact = maxCQs == 0 || len(translation) < maxCQs
	reduced := UCQReduce(translation)
	for _, q := range reduced {
		w, ok := cq.EquivalentInClass(q, c)
		if !ok {
			return nil, false, exact
		}
		witnesses = append(witnesses, w)
	}
	return witnesses, true, exact
}

// ApproximateUWB computes the UWB(k)-approximation of φ (Theorem 18): the
// union of the C(k)-approximations of the CQs in φ_cq, reduced. Every
// member of the result is a polynomial-size CQ in C(k) (a single-node WDPT
// in WB(k)); the union is the unique UWB(k)-approximation up to ≡s.
// φ must be constant-free (Section 6 studies approximations without
// constants). maxCQs caps the subtree enumeration (0 = no cap).
func ApproximateUWB(u *Union, c cq.Class, maxCQs int) ([]*cq.CQ, error) {
	for _, p := range u.trees {
		if p.HasConstants() {
			return nil, fmt.Errorf("uwdpt: UWB approximations are only defined for constant-free unions")
		}
	}
	if !c.SubqueryClosed() {
		return nil, fmt.Errorf("uwdpt: class %s is not subquery-closed; use TW(k) or HW'(k)", c.Name())
	}
	translation := u.CQTranslation(maxCQs, nil)
	var members []*cq.CQ
	for _, q := range translation {
		members = append(members, cq.ApproximationsInClass(q, c)...)
	}
	return UCQReduce(members), nil
}

// AsUnionOfWDPTs converts a union of CQs into a UWDPT of single-node trees,
// e.g. to compare a UWB(k)-approximation with the original union under ⊑.
func AsUnionOfWDPTs(qs []*cq.CQ) *Union {
	trees := make([]*core.PatternTree, len(qs))
	for i, q := range qs {
		trees[i] = core.FromCQ(q)
	}
	return MustNew(trees...)
}
