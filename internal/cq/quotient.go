package cq

// Quotient images of conjunctive queries. A quotient of q is the image of q
// under a variable-to-variable mapping θ that is the identity on the free
// variables. Every quotient image is contained in q (the quotient map is a
// homomorphism witnessing containment), and — for classes closed under
// substructures — every C-approximation of q is equivalent to a quotient
// image of q, which makes quotient enumeration the engine behind the CQ
// approximation results of [Barceló, Libkin, Romero 2014] used in
// Sections 5 and 6 of the paper.

// Quotients enumerates the quotient images of q: for every partition of the
// variables of q in which no two free variables share a block, visit
// receives the image query (free variables unchanged) and the quotient map
// θ. visit returning false stops the enumeration. The identity partition is
// included, so q itself (up to atom deduplication) is always visited.
//
// The number of partitions grows like a Bell number in the count of
// existential variables; callers are expected to keep queries small or stop
// early.
func Quotients(q *CQ, visit func(image *CQ, theta Mapping) bool) {
	vars := q.Vars()
	freeSet := make(map[string]bool, len(q.free))
	for _, x := range q.free {
		freeSet[x] = true
	}
	// Blocks are identified by representative variable. Free variables seed
	// singleton blocks that can absorb existential variables but never
	// merge with each other.
	var evars []string
	for _, v := range vars {
		if !freeSet[v] {
			evars = append(evars, v)
		}
	}
	// reps holds current block representatives: all free variables plus the
	// existential variables chosen as representatives of fresh blocks.
	reps := append([]string(nil), q.free...)
	assign := make(Mapping, len(vars))
	for _, x := range q.free {
		assign[x] = x
	}
	stopped := false
	var rec func(i int)
	rec = func(i int) {
		if stopped {
			return
		}
		if i == len(evars) {
			img := quotientImage(q, assign)
			if !visit(img, assign.Clone()) {
				stopped = true
			}
			return
		}
		v := evars[i]
		// Join an existing block...
		for _, r := range reps {
			assign[v] = r
			rec(i + 1)
			if stopped {
				return
			}
		}
		// ...or start a fresh block represented by v.
		assign[v] = v
		reps = append(reps, v)
		rec(i + 1)
		reps = reps[:len(reps)-1]
		delete(assign, v)
	}
	rec(0)
}

// quotientImage applies the variable renaming θ to the body of q and
// deduplicates atoms. Free variables are fixed by construction.
func quotientImage(q *CQ, theta Mapping) *CQ {
	atoms := make([]Atom, 0, len(q.atoms))
	for _, a := range q.atoms {
		args := make([]Term, len(a.Args))
		for i, t := range a.Args {
			if t.IsVar() {
				args[i] = V(theta[t.Value()])
			} else {
				args[i] = t
			}
		}
		atoms = append(atoms, Atom{Rel: a.Rel, Args: args})
	}
	return &CQ{free: append([]string(nil), q.free...), atoms: DedupAtoms(atoms)}
}

// ApproximationsInClass computes the C-approximations of q for a
// substructure-closed class C (TW(k) or HW'(k)): the maximal elements, with
// respect to containment, of the set of quotient images of q whose core
// belongs to C. The returned queries are cores, pairwise inequivalent, each
// contained in q, and jointly subsume every C-query contained in q.
//
// q must be constant-free (approximations with constants are not well
// understood even for CQs; Section 5.2).
func ApproximationsInClass(q *CQ, c Class) []*CQ {
	if q.HasConstants() {
		// documented precondition: callers gate on HasConstants (Section 5.2)
		panic("cq: approximations are only defined for constant-free queries")
	}
	var candidates []*CQ
	Quotients(q, func(img *CQ, _ Mapping) bool {
		core := Core(img)
		if c.Contains(core) {
			candidates = append(candidates, core)
		}
		return true
	})
	// Containment cannot fail, so neither can the frontier.
	out, _ := Frontier(candidates, func(a, b *CQ) (bool, error) { return ContainedIn(a, b), nil })
	return out
}
