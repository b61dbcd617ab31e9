package cq

// Frontier returns the maximal items under the preorder leq, one per
// equivalence class: of each class that no item lies strictly above, the
// first member in input order. The result keeps input order. leq(a, b)
// decides a ⊑ b and must be reflexive and transitive; its first error is
// returned unchanged.
//
// This is the filter behind C(k)-approximations of CQs, φ_cq^r of unions
// (Theorem 17) and WB(k)-approximations of trees (Theorem 14). The items
// are walked in order: an item below some frontier member is dropped;
// otherwise it evicts the members below it and joins the frontier. By
// transitivity this keeps exactly the items an all-pairs comparison keeps,
// with at most 2·|frontier| tests per item.
func Frontier[T any](items []T, leq func(a, b T) (bool, error)) ([]T, error) {
	var front []T
next:
	for _, x := range items {
		for _, f := range front {
			below, err := leq(x, f)
			if err != nil {
				return nil, err
			}
			if below {
				continue next
			}
		}
		kept := front[:0]
		for _, f := range front {
			dominated, err := leq(f, x)
			if err != nil {
				return nil, err
			}
			if !dominated {
				kept = append(kept, f)
			}
		}
		front = append(kept, x)
	}
	return front, nil
}
