package cq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wdpt/internal/db"
)

// pathDB returns a database with edges E(i, i+1) for i in [0, n).
func pathDB(n int) *db.Database {
	d := db.New()
	for i := 0; i < n; i++ {
		d.Insert("E", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	return d
}

func TestTermBasics(t *testing.T) {
	v, c := V("x"), C("a")
	if !v.IsVar() || c.IsVar() {
		t.Fatal("IsVar wrong")
	}
	if v.Value() != "x" || c.Value() != "a" {
		t.Fatal("Value wrong")
	}
	if v.String() != "?x" || c.String() != "a" {
		t.Fatal("String wrong")
	}
}

func TestAtomVarsAndKey(t *testing.T) {
	a := NewAtom("R", V("x"), C("c"), V("x"), V("y"))
	if got := a.Vars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Vars = %v", got)
	}
	b := NewAtom("R", V("x"), C("c"), V("x"), V("y"))
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Fatal("equal atoms should match")
	}
	// A variable named like a constant must not collide in keys.
	if NewAtom("R", V("a")).Key() == NewAtom("R", C("a")).Key() {
		t.Fatal("var/const key collision")
	}
	if a.String() != "R(?x, c, ?x, ?y)" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestNewValidation(t *testing.T) {
	atoms := []Atom{NewAtom("E", V("x"), V("y"))}
	if _, err := New([]string{"x", "x"}, atoms); err == nil {
		t.Fatal("duplicate free var accepted")
	}
	if _, err := New([]string{"z"}, atoms); err == nil {
		t.Fatal("free var missing from body accepted")
	}
	q, err := New([]string{"x"}, atoms)
	if err != nil || len(q.Free()) != 1 {
		t.Fatalf("valid query rejected: %v", err)
	}
}

func TestMappingSubsumption(t *testing.T) {
	h1 := Mapping{"x": "a"}
	h2 := Mapping{"x": "a", "y": "b"}
	h3 := Mapping{"x": "c"}
	if !h1.SubsumedBy(h2) || h2.SubsumedBy(h1) {
		t.Fatal("subsumption wrong")
	}
	if !properlySubsumed(h1, h2) || properlySubsumed(h1, h1) {
		t.Fatal("proper subsumption wrong")
	}
	if h1.SubsumedBy(h3) || h3.SubsumedBy(h1) {
		t.Fatal("incompatible mappings subsume")
	}
	u := h1.Union(Mapping{"y": "b"})
	if !u.Equal(h2) {
		t.Fatal("union wrong")
	}
	if got := h2.Restrict([]string{"y", "z"}); len(got) != 1 || got["y"] != "b" {
		t.Fatalf("Restrict = %v", got)
	}
}

func TestMappingSetMaximal(t *testing.T) {
	s := NewMappingSet()
	s.Add(Mapping{"x": "a"})
	s.Add(Mapping{"x": "a", "y": "b"})
	s.Add(Mapping{"x": "c"})
	s.Add(Mapping{"x": "a"}) // duplicate
	if n := len(s.All()); n != 3 {
		t.Fatalf("set holds %d mappings, want 3", n)
	}
	max := maximalOf(s.All())
	if len(max) != 2 {
		t.Fatalf("Maximal = %v, want 2 mappings", max)
	}
	for _, m := range max {
		if m.Equal(Mapping{"x": "a"}) {
			t.Fatal("subsumed mapping survived Maximal")
		}
	}
}

func TestHomomorphismsPath(t *testing.T) {
	// E(x,y), E(y,z) over a 3-edge path: homs = {(0,1,2), (1,2,3)}.
	atoms := []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("y"), V("z"))}
	d := pathDB(3)
	if got := countHomomorphisms(atoms, d, nil); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if !Satisfiable(atoms, d, Mapping{"x": "0"}) {
		t.Fatal("x=0 should be satisfiable")
	}
	if Satisfiable(atoms, d, Mapping{"x": "2"}) {
		t.Fatal("x=2 should not extend (no edge from 3)")
	}
	var homs []Mapping
	Homomorphisms(atoms, d, Mapping{"y": "2"}, func(h Mapping) bool {
		homs = append(homs, h.Clone())
		return true
	})
	if len(homs) != 1 || homs[0]["x"] != "1" || homs[0]["z"] != "3" {
		t.Fatalf("homomorphisms extending y=2: %v", homs)
	}
}

func TestHomomorphismsConstantsAndRepeats(t *testing.T) {
	d := db.New()
	d.Insert("R", "a", "a")
	d.Insert("R", "a", "b")
	// R(x, x) matches only (a, a).
	if got := countHomomorphisms([]Atom{NewAtom("R", V("x"), V("x"))}, d, nil); got != 1 {
		t.Fatalf("repeated var count = %d, want 1", got)
	}
	// R(a, y) matches both tuples.
	if got := countHomomorphisms([]Atom{NewAtom("R", C("a"), V("y"))}, d, nil); got != 2 {
		t.Fatalf("constant count = %d, want 2", got)
	}
	// R(b, y) matches nothing.
	if Satisfiable([]Atom{NewAtom("R", C("b"), V("y"))}, d, nil) {
		t.Fatal("R(b, y) should fail")
	}
}

func TestHomomorphismsEmptyAtoms(t *testing.T) {
	d := pathDB(2)
	if got := countHomomorphisms(nil, d, nil); got != 1 {
		t.Fatalf("empty atom set should have exactly the empty hom, got %d", got)
	}
}

func TestHomomorphismsUnknownRelation(t *testing.T) {
	d := pathDB(2)
	if Satisfiable([]Atom{NewAtom("Zzz", V("x"))}, d, nil) {
		t.Fatal("unknown relation should be unsatisfiable")
	}
	// Wrong arity likewise.
	if Satisfiable([]Atom{NewAtom("E", V("x"), V("y"), V("z"))}, d, nil) {
		t.Fatal("wrong arity should be unsatisfiable")
	}
}

func TestEvaluate(t *testing.T) {
	q := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("y"), V("z"))})
	got := q.Evaluate(pathDB(3))
	if len(got) != 2 {
		t.Fatalf("Evaluate = %v, want 2 answers", got)
	}
	if !q.Contains(pathDB(3), Mapping{"x": "0"}) {
		t.Fatal("x=0 should be an answer")
	}
	if q.Contains(pathDB(3), Mapping{"x": "3"}) {
		t.Fatal("x=3 should not be an answer")
	}
	// Contains requires the mapping to be defined exactly on the free vars.
	if q.Contains(pathDB(3), Mapping{"x": "0", "y": "1"}) {
		t.Fatal("over-defined mapping accepted")
	}
	if q.Contains(pathDB(3), Mapping{}) {
		t.Fatal("under-defined mapping accepted")
	}
}

func TestProjections(t *testing.T) {
	atoms := []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("y"), V("z"))}
	d := pathDB(3)
	d.Seal()
	c := CompileAtoms(atoms, nil)
	var k Searcher
	got := k.ProjectIDs(c, d, nil, c.Slots([]string{"x", "w"}), nil, nil, nil)
	var rows []string
	for i := 0; i < len(got); i += 2 {
		if got[i+1] != db.NoID {
			t.Fatalf("unbound projection variable got ID %d", got[i+1])
		}
		rows = append(rows, d.Dict().Term(got[i]))
	}
	if fmt.Sprint(rows) != "[0 1]" {
		t.Fatalf("projections to x = %v, want [0 1]", rows)
	}
}

func TestCanonicalDatabase(t *testing.T) {
	q := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("y"), C("c"))})
	d, frz := q.CanonicalDatabase()
	if d.Size() != 2 {
		t.Fatalf("canonical db size = %d, want 2", d.Size())
	}
	if !d.Contains("E", frz["x"], frz["y"]) || !d.Contains("E", frz["y"], "c") {
		t.Fatal("canonical db contents wrong")
	}
}

func TestContainment(t *testing.T) {
	// q1: path of length 2 from x; q2: single edge from x. q1 ⊆ q2.
	q1 := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("y"), V("z"))})
	q2 := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y"))})
	if !ContainedIn(q1, q2) {
		t.Fatal("longer path should be contained in shorter")
	}
	if ContainedIn(q2, q1) {
		t.Fatal("shorter path should not be contained in longer")
	}
	if Equivalent(q1, q2) {
		t.Fatal("not equivalent")
	}
}

func TestContainmentFreeVarPositional(t *testing.T) {
	// Same shape, different free variable names: positional correspondence.
	q1 := MustNew([]string{"a"}, []Atom{NewAtom("E", V("a"), V("b"))})
	q2 := MustNew([]string{"u"}, []Atom{NewAtom("E", V("u"), V("v"))})
	if !Equivalent(q1, q2) {
		t.Fatal("renamed queries should be equivalent")
	}
	q3 := MustNew([]string{"v"}, []Atom{NewAtom("E", V("u"), V("v"))})
	if ContainedIn(q1, q3) && ContainedIn(q3, q1) {
		t.Fatal("source/target free positions differ; should not be equivalent")
	}
	// Different free tuple lengths are never contained.
	q4 := MustNew([]string{"u", "v"}, []Atom{NewAtom("E", V("u"), V("v"))})
	if ContainedIn(q1, q4) || ContainedIn(q4, q1) {
		t.Fatal("arity mismatch containment")
	}
}

func TestContainmentSemanticsAgree(t *testing.T) {
	// Cross-check syntactic containment against evaluation on small random
	// databases: q1 ⊆ q2 implies q1(D) answers are subsumed pointwise.
	q1 := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("y"), V("x"))})
	q2 := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y"))})
	if !ContainedIn(q1, q2) {
		t.Fatal("2-cycle query contained in edge query")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := db.New()
		for i := 0; i < 10; i++ {
			d.Insert("E", fmt.Sprint(rng.Intn(4)), fmt.Sprint(rng.Intn(4)))
		}
		a1, a2 := q1.Evaluate(d), q2.Evaluate(d)
		set2 := make(map[string]bool, len(a2))
		for _, h := range a2 {
			set2[h.Key()] = true
		}
		for _, h := range a1 {
			if !set2[h.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCore(t *testing.T) {
	// E(x,y), E(x,z): folds to E(x,y).
	q := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("x"), V("z"))})
	core := Core(q)
	if len(core.Atoms()) != 1 {
		t.Fatalf("core = %v, want single atom", core)
	}
	if !Equivalent(q, core) {
		t.Fatal("core must be equivalent")
	}
	if !isCore(core) {
		t.Fatal("core of core")
	}
	if isCore(q) {
		t.Fatal("foldable query reported as core")
	}
}

func TestCoreFixesFreeVariables(t *testing.T) {
	// Both y and z free: nothing can fold.
	q := MustNew([]string{"x", "y", "z"}, []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("x"), V("z"))})
	core := Core(q)
	if len(core.Atoms()) != 2 {
		t.Fatalf("core dropped an atom with free variables: %v", core)
	}
}

// symCycle returns the symmetric (undirected-style) n-cycle as atoms.
func symCycle(n int) []Atom {
	var atoms []Atom
	name := func(i int) string { return fmt.Sprintf("c%d", i%n) }
	for i := 0; i < n; i++ {
		atoms = append(atoms,
			NewAtom("E", V(name(i)), V(name(i+1))),
			NewAtom("E", V(name(i+1)), V(name(i))))
	}
	return atoms
}

func TestCoreEvenVsOddCycle(t *testing.T) {
	// Classic: an undirected even cycle retracts to a single edge, while an
	// odd cycle is a core. A directed cycle, in contrast, never folds.
	even := Boolean(symCycle(4))
	core := Core(even)
	if len(core.Atoms()) > 2 {
		t.Fatalf("even symmetric cycle core too big: %v", core)
	}
	odd := Boolean(symCycle(3))
	if !isCore(odd) {
		t.Fatal("odd symmetric cycle should be a core")
	}
	directed := Boolean([]Atom{
		NewAtom("E", V("a"), V("b")),
		NewAtom("E", V("b"), V("c")),
		NewAtom("E", V("c"), V("d")),
		NewAtom("E", V("d"), V("a")),
	})
	if !isCore(directed) {
		t.Fatal("directed 4-cycle should be a core")
	}
}

// treewidth returns the treewidth of H_q: the least k with q in TW(k).
func treewidth(q *CQ) int {
	k := 0
	for !TW(k).Contains(q) {
		k++
	}
	return k
}

func TestTreewidthOfCQ(t *testing.T) {
	// Example 4: path query has treewidth 1; closing the cycle gives 2;
	// clique gives n-1.
	n := 6
	var atoms []Atom
	for i := 1; i < n; i++ {
		atoms = append(atoms, NewAtom("E", V(fmt.Sprintf("x%d", i)), V(fmt.Sprintf("x%d", i+1))))
	}
	q := Boolean(atoms)
	if w := treewidth(q); w != 1 {
		t.Fatalf("path query tw = %d, want 1", w)
	}
	if !TW(1).Contains(q) || TW(1).Name() != "TW(1)" {
		t.Fatal("path should be in TW(1)")
	}
	atoms = append(atoms, NewAtom("E", V("x1"), V(fmt.Sprintf("x%d", n))))
	q = Boolean(atoms)
	if w := treewidth(q); w != 2 {
		t.Fatalf("cycle query tw = %d, want 2", w)
	}
	if TW(1).Contains(q) || !TW(2).Contains(q) {
		t.Fatal("cycle class membership wrong")
	}
}

func TestHWClassExample5(t *testing.T) {
	// Example 5: clique of E-atoms plus one covering T_n atom is acyclic
	// (HW(1)) while treewidth is n-1.
	n := 5
	var atoms []Atom
	var vars []Term
	for i := 1; i <= n; i++ {
		vars = append(vars, V(fmt.Sprintf("x%d", i)))
	}
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			atoms = append(atoms, NewAtom("E", V(fmt.Sprintf("x%d", i)), V(fmt.Sprintf("x%d", j))))
		}
	}
	atoms = append(atoms, NewAtom("T", vars...))
	q := Boolean(atoms)
	if !HW(1).Contains(q) {
		t.Fatal("theta_n should be acyclic")
	}
	if TW(n - 2).Contains(q) {
		t.Fatal("theta_n treewidth should be n-1")
	}
	if HWPrime(1).Contains(q) {
		t.Fatal("theta_n is not beta-acyclic")
	}
	if HW(1).SubqueryClosed() || !TW(1).SubqueryClosed() || !HWPrime(1).SubqueryClosed() {
		t.Fatal("SubqueryClosed flags wrong")
	}
}

func TestEquivalentInClass(t *testing.T) {
	// A symmetric 4-cycle is equivalent (via its core, a single symmetric
	// edge) to a TW(1) query; a symmetric triangle is not.
	q := Boolean(symCycle(4))
	if w, ok := EquivalentInClass(q, TW(1)); !ok || w == nil {
		t.Fatal("even symmetric cycle should be TW(1)-equivalent")
	}
	tri := Boolean(symCycle(3))
	if _, ok := EquivalentInClass(tri, TW(1)); ok {
		t.Fatal("symmetric triangle should not be TW(1)-equivalent")
	}
	if _, ok := EquivalentInClass(tri, TW(2)); !ok {
		t.Fatal("symmetric triangle is itself TW(2)")
	}
}

func TestQuotientsCountAndContainment(t *testing.T) {
	// Boolean query with 2 existential vars: partitions of {y,z} with no
	// free vars = 2 (together or separate).
	q := Boolean([]Atom{NewAtom("E", V("y"), V("z"))})
	count := 0
	Quotients(q, func(img *CQ, theta Mapping) bool {
		count++
		if !ContainedIn(img, q) {
			t.Fatalf("quotient image %v not contained in %v", img, q)
		}
		return true
	})
	if count != 2 {
		t.Fatalf("quotient count = %d, want 2", count)
	}
	// With one free var x and evars y: y joins x's block or is alone => 2.
	q2 := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y"))})
	count = 0
	Quotients(q2, func(img *CQ, _ Mapping) bool {
		count++
		return true
	})
	if count != 2 {
		t.Fatalf("quotient count = %d, want 2", count)
	}
}

func TestApproximationsTriangle(t *testing.T) {
	// The TW(1)-approximation of the Boolean triangle is the single
	// self-loop-free pattern that collapses: mapping all three variables
	// together yields E(x,x); keeping a path yields E(a,b),E(b,c),E(c,a)
	// collapsed variants. The known TW(1)-approximation of the triangle is
	// the query with a self-loop E(x,x) — collapsing everything — since any
	// tree-shaped query contained in the triangle must map into it.
	tri := Boolean([]Atom{
		NewAtom("E", V("a"), V("b")),
		NewAtom("E", V("b"), V("c")),
		NewAtom("E", V("c"), V("a")),
	})
	approxes := ApproximationsInClass(tri, TW(1))
	if len(approxes) == 0 {
		t.Fatal("no approximation found")
	}
	for _, ap := range approxes {
		if !ContainedIn(ap, tri) {
			t.Fatalf("approximation %v not contained in triangle", ap)
		}
		if !TW(1).Contains(ap) {
			t.Fatalf("approximation %v not in TW(1)", ap)
		}
		if !isApproximationInClass(ap, tri, TW(1)) {
			t.Fatalf("isApproximationInClass rejects computed approximation %v", ap)
		}
	}
	// The self-loop query must be among (or equivalent to one of) them.
	loop := Boolean([]Atom{NewAtom("E", V("x"), V("x"))})
	found := false
	for _, ap := range approxes {
		if Equivalent(ap, loop) {
			found = true
		}
	}
	if !found {
		t.Fatalf("self-loop approximation missing from %v", approxes)
	}
}

func TestApproximationOfTractableQueryIsItself(t *testing.T) {
	q := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("y"), V("z"))})
	approxes := ApproximationsInClass(q, TW(1))
	if len(approxes) != 1 || !Equivalent(approxes[0], q) {
		t.Fatalf("approximation of a TW(1) query should be itself, got %v", approxes)
	}
}

func TestApproximationsRejectConstants(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on constants")
		}
	}()
	q := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), C("a"))})
	ApproximationsInClass(q, TW(1))
}

func TestHomToAtoms(t *testing.T) {
	src := []Atom{NewAtom("E", V("x"), V("y"))}
	dst := []Atom{NewAtom("E", V("u"), V("v")), NewAtom("E", V("v"), V("w"))}
	if !HomToAtoms(src, dst, map[string]string{"x": "u"}) {
		t.Fatal("hom with requirement x->u should exist")
	}
	if HomToAtoms(src, dst, map[string]string{"x": "w"}) {
		t.Fatal("no edge out of w")
	}
	if HomToAtoms(src, dst, map[string]string{"x": "nosuch"}) {
		t.Fatal("requirement onto missing var should fail")
	}
}

func TestEvaluateOnHelper(t *testing.T) {
	q := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y"))})
	got := evaluateOn(q, []Atom{NewAtom("E", C("a"), C("b"))})
	if len(got) != 1 || got[0]["x"] != "a" {
		t.Fatalf("evaluateOn = %v", got)
	}
}

// Property: Core(q) is always equivalent to q on random path-ish queries.
func TestCoreEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(3)
		na := 2 + rng.Intn(4)
		var atoms []Atom
		for i := 0; i < na; i++ {
			atoms = append(atoms, NewAtom("E",
				V(fmt.Sprintf("v%d", rng.Intn(nv))),
				V(fmt.Sprintf("v%d", rng.Intn(nv)))))
		}
		q := Boolean(atoms)
		core := Core(q)
		return Equivalent(q, core) && isCore(core)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every quotient image is contained in the original query, and
// evaluation respects that containment on a random database.
func TestQuotientContainmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := MustNew([]string{"v0"}, []Atom{
			NewAtom("E", V("v0"), V(fmt.Sprintf("v%d", 1+rng.Intn(2)))),
			NewAtom("E", V(fmt.Sprintf("v%d", 1+rng.Intn(2))), V("v3")),
		})
		d := db.New()
		for i := 0; i < 8; i++ {
			d.Insert("E", fmt.Sprint(rng.Intn(3)), fmt.Sprint(rng.Intn(3)))
		}
		ok := true
		Quotients(q, func(img *CQ, _ Mapping) bool {
			if !ContainedIn(img, q) {
				ok = false
				return false
			}
			ans := make(map[string]bool)
			for _, h := range q.Evaluate(d) {
				ans[h.Key()] = true
			}
			for _, h := range img.Evaluate(d) {
				if !ans[h.Key()] {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeAndString(t *testing.T) {
	q := MustNew([]string{"x"}, []Atom{NewAtom("E", V("x"), V("y"))})
	if q.Size() != 3 {
		t.Fatalf("Size = %d, want 3", q.Size())
	}
	if q.String() != "Ans(x) <- E(?x, ?y)" {
		t.Fatalf("String = %q", q.String())
	}
	if q.HasConstants() {
		t.Fatal("no constants expected")
	}
	c := q.Clone()
	c.atoms[0].Args[0] = C("boom")
	if q.HasConstants() {
		t.Fatal("clone not deep")
	}
}

// TestComponentDecomposition: variable-disjoint atom groups are solved
// independently; solution counts multiply and early unsatisfiability of any
// component zeroes the whole query.
func TestComponentDecomposition(t *testing.T) {
	d := db.New()
	d.Insert("A", "1")
	d.Insert("A", "2")
	d.Insert("B", "x")
	d.Insert("B", "y")
	d.Insert("B", "z")
	atoms := []Atom{NewAtom("A", V("u")), NewAtom("B", V("v"))}
	if got := countHomomorphisms(atoms, d, nil); got != 6 {
		t.Fatalf("cross product count = %d, want 2*3", got)
	}
	// Adding an unsatisfiable third component kills everything without
	// enumerating the cross product.
	atoms = append(atoms, NewAtom("C", V("w")))
	if got := countHomomorphisms(atoms, d, nil); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	// Fixed variables disconnect components: with u and v fixed, both
	// atoms are singleton components checked as ground facts.
	atoms = atoms[:2]
	if !Satisfiable(atoms, d, Mapping{"u": "1", "v": "z"}) {
		t.Fatal("fixed-consistent assignment rejected")
	}
	if Satisfiable(atoms, d, Mapping{"u": "3", "v": "z"}) {
		t.Fatal("fixed-inconsistent assignment accepted")
	}
}

// TestComponentEarlyStop: the visitor can stop mid-cross-product.
func TestComponentEarlyStop(t *testing.T) {
	d := db.New()
	for i := 0; i < 5; i++ {
		d.Insert("A", fmt.Sprint(i))
		d.Insert("B", fmt.Sprint(i))
	}
	atoms := []Atom{NewAtom("A", V("u")), NewAtom("B", V("v"))}
	seen := 0
	Homomorphisms(atoms, d, nil, func(h Mapping) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop failed: visited %d", seen)
	}
}
