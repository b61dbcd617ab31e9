package rdf

import (
	"context"
	"testing"
	"testing/quick"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
)

func TestEncodeDatabaseShape(t *testing.T) {
	d := db.New()
	d.Insert("R", "a", "b")
	d.Insert("S", "c")
	enc := EncodeDatabase(d)
	// R fact: 3 triples (rel + 2 args); S fact: 2 triples.
	if enc.Size() != 5 {
		t.Fatalf("encoded size = %d, want 5", enc.Size())
	}
	rel := enc.Relation(TripleRel)
	if rel == nil || rel.Arity() != 3 {
		t.Fatal("triples missing")
	}
}

func TestEncodeCQAnswersPreserved(t *testing.T) {
	q := cq.MustNew([]string{"x"}, []cq.Atom{
		cq.NewAtom("E", cq.V("x"), cq.V("y")),
		cq.NewAtom("E", cq.V("y"), cq.V("z")),
	})
	d := gen.ChainDatabase(4)
	enc := encodeCQ(q)
	want := q.Evaluate(d)
	got := enc.Evaluate(EncodeDatabase(d))
	if len(want) != len(got) {
		t.Fatalf("answers %d vs %d", len(want), len(got))
	}
	set := make(map[string]bool, len(want))
	for _, h := range want {
		set[h.Key()] = true
	}
	for _, h := range got {
		if !set[h.Key()] {
			t.Fatalf("extra answer %v", h)
		}
	}
}

func TestEncodeMusicTree(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	enc := Encode(p)
	if !IsRDF(enc) {
		t.Fatal("encoded tree is not an RDF WDPT")
	}
	if IsRDF(p) {
		t.Fatal("original tree is not RDF")
	}
	if enc.NumNodes() != p.NumNodes() {
		t.Fatal("node structure changed")
	}
	d := gen.MusicDatabase()
	want := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
	got := solve(t, enc, EncodeDatabase(d), core.SolveOptions{Mode: core.ModeEnumerate}).Answers
	if len(want) != len(got) {
		t.Fatalf("music answers %d vs %d:\n%v\n%v", len(want), len(got), want, got)
	}
	set := make(map[string]bool, len(want))
	for _, h := range want {
		set[h.Key()] = true
	}
	for _, h := range got {
		if !set[h.Key()] {
			t.Fatalf("answer %v not in the relational evaluation", h)
		}
	}
}

// TestEncodePreservesAnswersProperty: p(D) = Encode(p)(Encode(D)) on random
// trees and databases, including the decision problems.
func TestEncodePreservesAnswersProperty(t *testing.T) {
	eng := cqeval.Auto()
	f := func(seed int64) bool {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, MaxChildren: 2}, seed)
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 3, TuplesPerRel: 6}, seed+13)
		enc, encD := Encode(p), EncodeDatabase(d)
		want := solve(t, p, d, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
		got := solve(t, enc, encD, core.SolveOptions{Mode: core.ModeEnumerate}).Answers
		if len(want) != len(got) {
			t.Logf("seed %d: %d vs %d answers", seed, len(want), len(got))
			return false
		}
		set := make(map[string]bool, len(want))
		for _, h := range want {
			set[h.Key()] = true
		}
		for _, h := range got {
			if !set[h.Key()] {
				return false
			}
		}
		// Spot-check the decision problems on one answer.
		if len(want) > 0 {
			h := want[0]
			if !solve(t, enc, encD, core.SolveOptions{Mode: core.ModeExact, Mapping: h, Engine: eng}).Holds {
				t.Logf("seed %d: EvalInterface lost answer %v", seed, h)
				return false
			}
			if !solve(t, enc, encD, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng}).Holds {
				t.Logf("seed %d: PartialEval lost answer %v", seed, h)
				return false
			}
			if solve(t, enc, encD, core.SolveOptions{Mode: core.ModeMax, Mapping: h, Engine: eng}).Holds != maximalIn(h, want) {
				t.Logf("seed %d: MaxEval disagrees for %v", seed, h)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func maximalIn(h cq.Mapping, all []cq.Mapping) bool {
	for _, g := range all {
		if h.SubsumedBy(g) && !g.SubsumedBy(h) {
			return false
		}
	}
	return true
}

func TestEncodingIsWellDesignedAndClassifiable(t *testing.T) {
	p := gen.MusicWDPT("x", "y")
	enc := Encode(p) // MustNew inside validates well-designedness
	cl := enc.Classify()
	if cl.Nodes != 3 {
		t.Fatalf("classification nodes = %d", cl.Nodes)
	}
	// The encoding adds tuple variables shared between the three triples of
	// each atom; local treewidth stays small (star-shaped per tuple id).
	if cl.LocalTW > 2 {
		t.Fatalf("encoded local treewidth = %d, expected small", cl.LocalTW)
	}
}

func TestRelationSymbolNamespacing(t *testing.T) {
	// A data constant equal to a relation name must not join with the rel
	// marker triples.
	d := db.New()
	d.Insert("R", "R") // constant "R" equals the relation symbol
	enc := EncodeDatabase(d)
	q := encodeCQ(cq.MustNew([]string{"x"}, []cq.Atom{cq.NewAtom("R", cq.V("x"))}))
	got := q.Evaluate(enc)
	if len(got) != 1 || got[0]["x"] != "R" {
		t.Fatalf("answers = %v", got)
	}
}

// solve runs one Solve call under a background context, failing the test
// on error.
func solve(t testing.TB, p *core.PatternTree, d *db.Database, opts core.SolveOptions) core.Result {
	t.Helper()
	res, err := p.Solve(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// encodeCQ converts a conjunctive query to the RDF vocabulary: the free
// variables are unchanged and the tuple variables are existential.
func encodeCQ(q *cq.CQ) *cq.CQ {
	return cq.MustNew(q.Free(), encodeAtoms(q.Atoms(), "q"))
}
