package cq

// ContainedIn reports q1 ⊆ q2: for every database D, q1(D) ⊆ q2(D). By the
// Chandra–Merlin theorem this holds iff there is a homomorphism from q2 to
// the frozen canonical database of q1 mapping each free variable of q2 to
// the frozen image of the corresponding free variable of q1.
//
// The queries must have the same free-variable tuple length; free variables
// correspond positionally.
func ContainedIn(q1, q2 *CQ) bool {
	if len(q1.free) != len(q2.free) {
		return false
	}
	canon, frz := q1.CanonicalDatabase()
	fixed := make(Mapping, len(q2.free))
	for i, x2 := range q2.free {
		fixed[x2] = frz[q1.free[i]]
	}
	return Satisfiable(q2.atoms, canon, fixed)
}

// Equivalent reports q1 ≡ q2: containment in both directions.
func Equivalent(q1, q2 *CQ) bool {
	return ContainedIn(q1, q2) && ContainedIn(q2, q1)
}

// HomToAtoms reports whether there is a homomorphism from the atoms of src
// into the atoms of dst (viewing dst frozen) that is consistent with the
// variable-to-variable requirements in req: req[v] = w demands that variable
// v of src maps to the frozen image of variable w of dst. This is the
// building block used by WDPT subsumption tests.
func HomToAtoms(src, dst []Atom, req map[string]string) bool {
	canon, frz := FreezeAtoms(dst)
	fixed := make(Mapping, len(req))
	for v, w := range req {
		img, ok := frz[w]
		if !ok {
			// w does not occur in dst; no homomorphism can satisfy req.
			return false
		}
		fixed[v] = img
	}
	return Satisfiable(src, canon, fixed)
}

// Core returns the core of q: a minimal equivalent subquery obtained by
// repeatedly folding the query onto proper subsets of its atoms via
// endomorphisms that fix the free variables. Cores are unique up to
// isomorphism; the returned query is equivalent to q.
func Core(q *CQ) *CQ {
	atoms := DedupAtoms(q.atoms)
	for {
		folded, changed := foldOnce(atoms, q.free)
		if !changed {
			break
		}
		atoms = folded
	}
	out, err := New(q.free, atoms)
	if err != nil {
		// Folding fixes free variables, so they always remain in the body.
		// unreachable invariant violation: endomorphisms fix the free variables
		panic("cq: core lost a free variable: " + err.Error())
	}
	return out
}

// foldOnce searches for an endomorphism of atoms (fixing the free variables)
// whose image uses strictly fewer atoms, and returns the image atom set.
func foldOnce(atoms []Atom, free []string) ([]Atom, bool) {
	canon, frz := FreezeAtoms(atoms)
	fixed := make(Mapping, len(free))
	for _, x := range free {
		if img, ok := frz[x]; ok {
			fixed[x] = img
		}
	}
	total := len(atoms)
	var result []Atom
	Homomorphisms(atoms, canon, fixed, func(h Mapping) bool {
		img := imageAtoms(atoms, h)
		if len(img) < total {
			result = img
			return false
		}
		return true
	})
	if result == nil {
		return atoms, false
	}
	return result, true
}

// imageAtoms applies h (whose range consists of frozen constants •v) to the
// atoms and converts the image back to atoms over variables, deduplicating.
func imageAtoms(atoms []Atom, h Mapping) []Atom {
	out := make([]Atom, 0, len(atoms))
	for _, a := range atoms {
		args := make([]Term, len(a.Args))
		for i, t := range a.Args {
			if !t.IsVar() {
				args[i] = t
				continue
			}
			img := h[t.Value()]
			args[i] = unfreezeTerm(img)
		}
		out = append(out, Atom{Rel: a.Rel, Args: args})
	}
	return DedupAtoms(out)
}

// unfreezeTerm converts a frozen constant "•v" back to the variable v, and
// leaves ordinary constants intact.
func unfreezeTerm(c string) Term {
	if len(c) >= len("•") && c[:len("•")] == "•" {
		return V(c[len("•"):])
	}
	return C(c)
}
