package core_test

import (
	"context"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
)

// Regression tests for the separator-joined cq.Mapping.Key / cq.Atom.Key:
// constants holding "\x00", "=" or "?" made distinct answers, interfaces
// and instantiated atoms share a key, which surfaced here as a dropped
// answer (Definition 2 asks for a set of mappings, not a set of keys), a
// memo verdict served for another interface, and an atom lost to
// DedupAtoms. cqeval's shapeKey is length-prefixed, so it needs no case.

var engineNames = []string{"auto", "naive", "yannakakis", "decomposition", "hypertree"}

func engineNamed(t *testing.T, name string) cqeval.Engine {
	t.Helper()
	eng, err := cqeval.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestCollidingAnswersBothEnumerated: p = R(?x) OPT S(?x, ?y) over a
// database whose two answers {x ↦ "a\x00y=b"} and {x ↦ a, y ↦ b} had the
// same key. Both are maximal, so both modes must return both.
func TestCollidingAnswersBothEnumerated(t *testing.T) {
	p := core.MustNew(core.NodeSpec{
		Atoms:    []cq.Atom{cq.NewAtom("R", cq.V("x"))},
		Children: []core.NodeSpec{{Atoms: []cq.Atom{cq.NewAtom("S", cq.V("x"), cq.V("y"))}}},
	}, []string{"x", "y"})
	d := db.New()
	d.Insert("R", "a\x00y=b")
	d.Insert("R", "a")
	d.Insert("S", "a", "b")
	want := []cq.Mapping{{"x": "a\x00y=b"}, {"x": "a", "y": "b"}}

	for _, name := range engineNames {
		for _, mode := range []core.Mode{core.ModeEnumerate, core.ModeMaximal} {
			for _, par := range []int{1, 2} {
				res, err := p.Solve(context.Background(), d, core.SolveOptions{Mode: mode, Engine: engineNamed(t, name), Parallelism: par})
				if err != nil {
					t.Fatalf("%s/%v/P=%d: %v", name, mode, par, err)
				}
				if len(res.Answers) != len(want) {
					t.Fatalf("%s/%v/P=%d: answers = %v, want %v", name, mode, par, res.Answers, want)
				}
				for _, w := range want {
					found := false
					for _, h := range res.Answers {
						found = found || h.Equal(w)
					}
					if !found {
						t.Fatalf("%s/%v/P=%d: answers = %v lack %v", name, mode, par, res.Answers, w)
					}
				}
			}
		}
	}
}

// TestInterfaceMemoKeepsCollidingInterfacesApart drives ModeExact (Theorem
// 6) through two root homomorphisms whose interfaces to the blocked child
// S(?u, ?v, ?y) collided: {u ↦ "a\x00v=b", v ↦ c} and {u ↦ a, v ↦
// "b\x00v=c"}. One interface extends into the child (so that root
// homomorphism does not witness h), the other does not (so h = {x ↦ k} is
// an answer). Whichever the evaluator meets first, the second must not be
// served the first's memoized verdict — hence both arrangements.
func TestInterfaceMemoKeepsCollidingInterfacesApart(t *testing.T) {
	p := core.MustNew(core.NodeSpec{
		Atoms:    []cq.Atom{cq.NewAtom("R", cq.V("x"), cq.V("u"), cq.V("v"))},
		Children: []core.NodeSpec{{Atoms: []cq.Atom{cq.NewAtom("S", cq.V("u"), cq.V("v"), cq.V("y"))}}},
	}, []string{"x", "y"})
	ifaces := [][2]string{{"a\x00v=b", "c"}, {"a", "b\x00v=c"}}
	for extending := range ifaces {
		d := db.New()
		for _, uv := range ifaces {
			d.Insert("R", "k", uv[0], uv[1])
		}
		d.Insert("S", ifaces[extending][0], ifaces[extending][1], "z")
		for _, name := range engineNames {
			res, err := p.Solve(context.Background(), d, core.SolveOptions{
				Mode: core.ModeExact, Mapping: cq.Mapping{"x": "k"}, Engine: engineNamed(t, name)})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Holds {
				t.Errorf("%s, interface %d extending: {x ↦ k} rejected, but the other root homomorphism is blocked at S", name, extending)
			}
		}
	}
}

// TestInstantiatedAtomsKeepCollidingConstants: under h the root's two atoms
// instantiate to R(?x, "a\x00=b", c) and R(?x, a, "b\x00=c"), which shared
// an Atom.Key; DedupAtoms dropped the second, so the engines checked only
// the first and accepted an h no homomorphism extends.
func TestInstantiatedAtomsKeepCollidingConstants(t *testing.T) {
	p := core.MustNew(core.NodeSpec{Atoms: []cq.Atom{
		cq.NewAtom("R", cq.V("x"), cq.V("u"), cq.V("v")),
		cq.NewAtom("R", cq.V("x"), cq.V("s"), cq.V("t")),
	}}, []string{"u", "v", "s", "t"})
	d := db.New()
	d.Insert("R", "k", "a\x00=b", "c")
	h := cq.Mapping{"u": "a\x00=b", "v": "c", "s": "a", "t": "b\x00=c"}
	for _, name := range engineNames {
		for _, mode := range []core.Mode{core.ModeExact, core.ModePartial, core.ModeMax} {
			res, err := p.Solve(context.Background(), d, core.SolveOptions{Mode: mode, Mapping: h, Engine: engineNamed(t, name)})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			if res.Holds {
				t.Errorf("%s/%v: h accepted although R(k, a, \"b\\x00=c\") is not in the database", name, mode)
			}
		}
	}
}
