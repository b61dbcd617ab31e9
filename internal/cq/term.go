// Package cq implements conjunctive queries (CQs) over arbitrary relational
// schemas: terms, atoms, homomorphisms, evaluation, containment, cores,
// variable quotients, and treewidth-bounded equivalence and approximation of
// CQs. It is the foundation on which well-designed pattern trees
// (internal/core) are built, following Section 2 of Barceló & Pichler,
// "Efficient Evaluation and Approximation of Well-designed Pattern Trees"
// (PODS 2015).
package cq

import (
	"fmt"
	"slices"
	"strings"
)

// Term is either a variable or a constant appearing in a relational atom.
// The zero value is the empty constant.
type Term struct {
	val   string
	isVar bool
}

// V returns a variable term with the given name.
func V(name string) Term { return Term{val: name, isVar: true} }

// C returns a constant term with the given value.
func C(value string) Term { return Term{val: value} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.isVar }

// Value returns the variable name or the constant value.
func (t Term) Value() string { return t.val }

// String renders variables with a leading '?' and constants verbatim.
func (t Term) String() string {
	if t.isVar {
		return "?" + t.val
	}
	return t.val
}

// Atom is a relational atom R(v1, ..., vn) over variables and constants.
type Atom struct {
	Rel  string
	Args []Term
}

// NewAtom builds an atom over the given relation symbol and arguments.
func NewAtom(rel string, args ...Term) Atom {
	return Atom{Rel: rel, Args: args}
}

// Vars returns the distinct variable names of the atom in first-occurrence
// order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool, len(a.Args))
	for _, t := range a.Args {
		if t.isVar && !seen[t.val] {
			seen[t.val] = true
			out = append(out, t.val)
		}
	}
	return out
}

// Equal reports syntactic equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Key renders the atom as a canonical string usable as a map key: the
// relation name, then per argument a '?' (variable) or '=' (constant) tag
// and the name or value, every string as length ':' bytes. The length
// prefixes keep the key injective whatever bytes a constant holds.
func (a Atom) Key() string {
	var buf [128]byte
	b := appendLenPrefixed(buf[:0], a.Rel)
	for _, t := range a.Args {
		if t.isVar {
			b = append(b, '?')
		} else {
			b = append(b, '=')
		}
		b = appendLenPrefixed(b, t.val)
	}
	return string(b)
}

// String renders the atom as "R(?x, c)".
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ", "))
}

// AtomsVars returns the distinct variable names across a set of atoms in
// first-occurrence order.
func AtomsVars(atoms []Atom) []string {
	out := make([]string, 0, 2*len(atoms))
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.isVar && !slices.Contains(out, t.val) {
				out = append(out, t.val)
			}
		}
	}
	return out
}

// DedupAtoms returns atoms with exact syntactic duplicates removed,
// preserving first-occurrence order.
func DedupAtoms(atoms []Atom) []Atom {
	var out []Atom
	seen := make(map[string]bool, len(atoms))
	for _, a := range atoms {
		k := a.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}
