// Package rdf implements the RDF scenario of Section 2 of Barceló & Pichler
// (PODS 2015): WDPTs over the single ternary relation of the semantic web
// data model. The paper notes that all its results continue to hold there;
// this package makes the connection executable by encoding arbitrary
// relational databases and pattern trees into triple form (one reified
// tuple per fact) in an answer-preserving way, which the tests verify.
//
// A fact R(a1, ..., an) becomes the triples
//
//	(t, "a0", a1), ..., (t, "a<n-1>", an), (t, "rel", "R")
//
// for a fresh tuple identifier t; an atom R(v1, ..., vn) becomes the same
// pattern with a fresh existential tuple variable. Tuple variables are
// local to the node encoding the atom, so well-designedness is preserved,
// and answers project to the original free variables unchanged.
package rdf

import (
	"fmt"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/db"
)

// TripleRel is the single ternary relation symbol used by the encoding.
const TripleRel = "triple"

// relMarker is the property linking a tuple id to its relation symbol.
const relMarker = "rel"

// relValue namespaces relation symbols so they cannot collide with data
// constants.
func relValue(rel string) string { return "rel:" + rel }

func argProperty(i int) string { return fmt.Sprintf("a%d", i) }

// EncodeDatabase converts a relational database to a triple store: one
// fresh tuple identifier per fact.
func EncodeDatabase(d *db.Database) *db.Database {
	out := db.New()
	next := 0
	for _, r := range d.Relations() {
		dict := r.Dict()
		for t, n := 0, r.Len(); t < n; t++ {
			id := fmt.Sprintf("t%d", next)
			next++
			out.Insert(TripleRel, id, relMarker, relValue(r.Name()))
			for i, c := range r.Scan(t) {
				out.Insert(TripleRel, id, argProperty(i), dict.Term(c))
			}
		}
	}
	out.Seal()
	return out
}

// encodeAtoms converts relational atoms to triple patterns. Tuple variables
// are generated with the given prefix so that distinct nodes of a pattern
// tree get disjoint tuple variables.
func encodeAtoms(atoms []cq.Atom, prefix string) []cq.Atom {
	var out []cq.Atom
	for i, a := range atoms {
		id := cq.V(fmt.Sprintf("%s_tv%d", prefix, i))
		out = append(out, cq.NewAtom(TripleRel, id, cq.C(relMarker), cq.C(relValue(a.Rel))))
		for j, t := range a.Args {
			out = append(out, cq.NewAtom(TripleRel, id, cq.C(argProperty(j)), t))
		}
	}
	return out
}

// Encode converts a relational pattern tree to an RDF pattern tree over the
// single ternary relation. Node structure and free variables are preserved;
// for every database D, p(D) equals Encode(p)(EncodeDatabase(D)) — the
// "all our results continue to hold in the RDF scenario" bridge, which the
// package tests check on the paper's examples and random instances.
func Encode(p *core.PatternTree) *core.PatternTree {
	var spec func(n *core.Node) core.NodeSpec
	spec = func(n *core.Node) core.NodeSpec {
		s := core.NodeSpec{Atoms: encodeAtoms(n.Atoms(), fmt.Sprintf("n%d", n.ID()))}
		for _, c := range n.Children() {
			s.Children = append(s.Children, spec(c))
		}
		return s
	}
	return core.MustNew(spec(p.Root()), p.Free())
}

// IsRDF reports whether the tree mentions only the ternary triple relation,
// i.e. whether it is an RDF WDPT in the sense of Section 2.
func IsRDF(p *core.PatternTree) bool {
	for _, a := range p.AllAtoms() {
		if a.Rel != TripleRel || len(a.Args) != 3 {
			return false
		}
	}
	return true
}
