package cq

import (
	"fmt"
	"strings"

	"wdpt/internal/db"
)

// CQ is a conjunctive query Ans(x̄) <- R1(v̄1), ..., Rm(v̄m) where x̄ is a
// tuple of distinct free variables occurring in the body (Section 2,
// equation (2)).
type CQ struct {
	free  []string
	atoms []Atom
}

// New builds a CQ and validates that the free variables are distinct and
// occur in the body.
func New(free []string, atoms []Atom) (*CQ, error) {
	bodyVars := make(map[string]bool)
	for _, v := range AtomsVars(atoms) {
		bodyVars[v] = true
	}
	seen := make(map[string]bool, len(free))
	for _, x := range free {
		if seen[x] {
			return nil, fmt.Errorf("cq: duplicate free variable %q", x)
		}
		seen[x] = true
		if !bodyVars[x] {
			return nil, fmt.Errorf("cq: free variable %q does not occur in the body", x)
		}
	}
	return &CQ{free: append([]string(nil), free...), atoms: append([]Atom(nil), atoms...)}, nil
}

// MustNew is New that panics on error; intended for literals in tests,
// examples and generators.
func MustNew(free []string, atoms []Atom) *CQ {
	q, err := New(free, atoms)
	if err != nil {
		// Must-constructor: panicking on invalid literals is its documented contract
		panic(err)
	}
	return q
}

// Boolean builds the Boolean CQ Ans() <- atoms.
func Boolean(atoms []Atom) *CQ {
	return &CQ{atoms: append([]Atom(nil), atoms...)}
}

// Free returns the free variables x̄. The slice must not be modified.
func (q *CQ) Free() []string { return q.free }

// Atoms returns the body atoms. The slice must not be modified.
func (q *CQ) Atoms() []Atom { return q.atoms }

// Vars returns all distinct variables of the body in first-occurrence order.
func (q *CQ) Vars() []string { return AtomsVars(q.atoms) }

// Size returns the size of the query in standard relational notation: the
// total number of argument positions across all atoms.
func (q *CQ) Size() int {
	n := 0
	for _, a := range q.atoms {
		n += 1 + len(a.Args)
	}
	return n
}

// HasConstants reports whether any atom mentions a constant. Approximations
// (Section 5.2) are only defined for constant-free queries.
func (q *CQ) HasConstants() bool {
	for _, a := range q.atoms {
		for _, t := range a.Args {
			if !t.IsVar() {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the query.
func (q *CQ) Clone() *CQ {
	atoms := make([]Atom, len(q.atoms))
	for i, a := range q.atoms {
		atoms[i] = Atom{Rel: a.Rel, Args: append([]Term(nil), a.Args...)}
	}
	return &CQ{free: append([]string(nil), q.free...), atoms: atoms}
}

// String renders the query as "Ans(x, y) <- R(?x, ?z), S(?z, ?y)".
func (q *CQ) String() string {
	parts := make([]string, len(q.atoms))
	for i, a := range q.atoms {
		parts[i] = a.String()
	}
	return fmt.Sprintf("Ans(%s) <- %s", strings.Join(q.free, ", "), strings.Join(parts, ", "))
}

// Evaluate computes q(D): the set of restrictions h_x̄ of homomorphisms h
// from q to D. Note that, following the paper (footnote 4), answers are
// partial mappings on the free variables rather than tuples.
func (q *CQ) Evaluate(d *db.Database) []Mapping {
	set := NewMappingSet()
	Homomorphisms(q.atoms, d, nil, func(h Mapping) bool {
		set.Add(h.Restrict(q.free))
		return true
	})
	return set.All()
}

// Contains reports whether h ∈ q(D): the membership test behind the
// CQ-EVAL problem of Section 3.1. The mapping h must be defined exactly on
// the free variables of q.
func (q *CQ) Contains(d *db.Database, h Mapping) bool {
	if len(h) != len(q.free) {
		return false
	}
	for _, x := range q.free {
		if _, ok := h[x]; !ok {
			return false
		}
	}
	return Satisfiable(q.atoms, d, h)
}

// CanonicalDatabase returns the frozen body of q: each variable becomes a
// fresh constant named by freeze(var). The second return value is the
// freezing mapping from variable names to the introduced constants.
func (q *CQ) CanonicalDatabase() (*db.Database, Mapping) {
	return FreezeAtoms(q.atoms)
}

// FreezeAtoms grounds a set of atoms by replacing every variable v with the
// reserved constant "•v", returning the resulting database and the freezing
// mapping. The bullet prefix keeps frozen constants disjoint from ordinary
// ones.
func FreezeAtoms(atoms []Atom) (*db.Database, Mapping) {
	frz := make(Mapping)
	for _, v := range AtomsVars(atoms) {
		frz[v] = frozenConst(v)
	}
	d := db.New()
	for _, a := range atoms {
		ground := frz.ApplyAtom(a)
		vals := make([]string, len(ground.Args))
		for i, t := range ground.Args {
			vals[i] = t.Value()
		}
		d.Insert(a.Rel, vals...)
	}
	return d, frz
}

// frozenConst returns the reserved constant that freezing assigns to the
// variable v.
func frozenConst(v string) string { return "•" + v }
