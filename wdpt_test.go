package wdpt_test

import (
	"context"
	"fmt"
	"testing"

	"wdpt"
)

func musicDB() *wdpt.Database {
	d := wdpt.NewDatabase()
	d.Insert("recorded_by", "Our_love", "Caribou")
	d.Insert("published", "Our_love", "after_2010")
	d.Insert("recorded_by", "Swim", "Caribou")
	d.Insert("published", "Swim", "after_2010")
	d.Insert("rating", "Swim", "2")
	return d
}

const musicQuery = `
	(recorded_by(?x, ?y) AND published(?x, "after_2010"))
	OPT rating(?x, ?z)
	OPT formed_in(?y, ?zp)`

func TestFacadeEndToEnd(t *testing.T) {
	p, err := wdpt.ParseQuery(musicQuery)
	if err != nil {
		t.Fatal(err)
	}
	d := musicDB()
	answers := solve(t, p, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers
	if len(answers) != 2 {
		t.Fatalf("answers = %v", answers)
	}
	eng := wdpt.AutoEngine()
	if !solve(t, p, d, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: wdpt.Mapping{"y": "Caribou"}, Engine: eng}).Holds {
		t.Fatal("partial answer missing")
	}
	if !solve(t, p, d, wdpt.SolveOptions{Mode: wdpt.ModeExact, Mapping: wdpt.Mapping{"x": "Swim", "y": "Caribou", "z": "2"}, Engine: eng}).Holds {
		t.Fatal("exact answer missing")
	}
	cl := p.Classify()
	if cl.LocalTW != 1 || cl.GlobalTW != 1 {
		t.Fatalf("classification = %+v", cl)
	}
}

func TestFacadeConstructors(t *testing.T) {
	p := wdpt.MustNew(wdpt.NodeSpec{
		Atoms: []wdpt.Atom{wdpt.NewAtom("e", wdpt.V("a"), wdpt.V("b"))},
	}, []string{"a"})
	if p.NumNodes() != 1 {
		t.Fatal("MustNew failed")
	}
	if _, err := wdpt.New(wdpt.NodeSpec{
		Atoms: []wdpt.Atom{wdpt.NewAtom("e", wdpt.V("a"), wdpt.C("k"))},
	}, []string{"missing"}); err == nil {
		t.Fatal("invalid free variable accepted")
	}
	u, err := wdpt.NewUnion(p)
	if err != nil || len(u.Trees()) != 1 {
		t.Fatal("union constructor failed")
	}
}

func TestFacadeAnalysisAndApproximation(t *testing.T) {
	tri, err := wdpt.ParseWDPT(`ANS(?x) { e(?a,?b), e(?b,?c), e(?c,?a), v(?x) }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, member, err := wdpt.MemberWB(ctx, tri, wdpt.WB(1), wdpt.ApproxOptions{}); err != nil || member {
		t.Fatalf("triangle should not be in M(WB(1)) (err %v)", err)
	}
	ap, err := wdpt.Approximate(ctx, tri, wdpt.WB(1), wdpt.ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := wdpt.Subsumes(ctx, ap, tri, wdpt.SubsumeOptions{}); err != nil || !ok {
		t.Fatalf("approximation must be subsumed (err %v)", err)
	}
	if ok, err := wdpt.IsApproximation(ctx, ap, tri, wdpt.WB(1), wdpt.ApproxOptions{}); err != nil || !ok {
		t.Fatalf("IsApproximation rejected the computed approximation (err %v)", err)
	}
	if d, h, found, err := wdpt.SubsumptionCounterExample(ctx, tri, ap, wdpt.SubsumeOptions{}); err != nil || !found || d == nil || h == nil {
		t.Fatalf("tri ⋢ approximation should have a counterexample (err %v)", err)
	}
}

func TestFacadeClasses(t *testing.T) {
	for _, c := range []wdpt.Class{wdpt.TW(1), wdpt.HW(1), wdpt.HWPrime(1), wdpt.WB(2), wdpt.WBPrime(1)} {
		if c.Name() == "" {
			t.Fatal("class without a name")
		}
	}
}

// ExampleParseQuery demonstrates optional matching end to end; the output
// is the paper's Example 2.
func ExampleParseQuery() {
	d := wdpt.NewDatabase()
	d.Insert("recorded_by", "Our_love", "Caribou")
	d.Insert("published", "Our_love", "after_2010")
	d.Insert("recorded_by", "Swim", "Caribou")
	d.Insert("published", "Swim", "after_2010")
	d.Insert("rating", "Swim", "2")

	p, _ := wdpt.ParseQuery(`
		(recorded_by(?x, ?y) AND published(?x, "after_2010"))
		OPT rating(?x, ?z)`)
	res, _ := p.Solve(context.Background(), d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate})
	for _, h := range res.Answers {
		fmt.Println(h)
	}
	// Output:
	// {x -> Our_love, y -> Caribou}
	// {x -> Swim, y -> Caribou, z -> 2}
}

// ExamplePatternTree_Solve shows the maximal-mappings semantics of
// Section 3.4 (the paper's Example 7) through MAX-EVAL.
func ExamplePatternTree_Solve() {
	d := wdpt.NewDatabase()
	d.Insert("recorded_by", "Swim", "Caribou")
	d.Insert("published", "Swim", "after_2010")
	d.Insert("rating", "Swim", "2")

	p, _ := wdpt.ParseQuery(`SELECT ?y ?z WHERE
        (recorded_by(?x, ?y) AND published(?x, "after_2010"))
        OPT rating(?x, ?z)`)
	eng := wdpt.AutoEngine()
	for _, h := range []wdpt.Mapping{{"y": "Caribou"}, {"y": "Caribou", "z": "2"}} {
		res, _ := p.Solve(context.Background(), d, wdpt.SolveOptions{Mode: wdpt.ModeMax, Mapping: h, Engine: eng})
		fmt.Println(res.Holds)
	}
	// Output:
	// false
	// true
}

// ExampleApproximate computes a tractable approximation of an intractable
// pattern (Section 5.2).
func ExampleApproximate() {
	tri, _ := wdpt.ParseWDPT(`ANS(?x) { e(?a,?b), e(?b,?c), e(?c,?a), v(?x) }`)
	ctx := context.Background()
	ap, _ := wdpt.Approximate(ctx, tri, wdpt.WB(1), wdpt.ApproxOptions{})
	subsumed, _ := wdpt.Subsumes(ctx, ap, tri, wdpt.SubsumeOptions{})
	fmt.Println(subsumed)
	// Output:
	// true
}

func TestFacadeUnionOptimizer(t *testing.T) {
	p, err := wdpt.ParseWDPT(`ANS(?x) { E(?a,?b), E(?b,?a), V(?x) }`)
	if err != nil {
		t.Fatal(err)
	}
	u, err := wdpt.NewUnion(p)
	if err != nil {
		t.Fatal(err)
	}
	o := wdpt.OptimizeUnion(u, wdpt.TW(1), 0)
	if !o.Tractable() {
		t.Fatal("symmetric edge union should be tractable")
	}
	d := wdpt.NewDatabase()
	d.Insert("E", "a", "b")
	d.Insert("E", "b", "a")
	d.Insert("V", "v")
	eng := wdpt.AutoEngine()
	if !solve(t, o, d, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: wdpt.Mapping{"x": "v"}, Engine: eng}).Holds {
		t.Fatal("partial answer lost through the union witness")
	}
}

func TestFacadeRDF(t *testing.T) {
	p, err := wdpt.ParseQuery(`a(?x) OPT b(?x, ?y)`)
	if err != nil {
		t.Fatal(err)
	}
	enc := wdpt.EncodeRDF(p)
	if !wdpt.IsRDFTree(enc) || wdpt.IsRDFTree(p) {
		t.Fatal("RDF façade wrong")
	}
	d := wdpt.NewDatabase()
	d.Insert("a", "1")
	d.Insert("b", "1", "2")
	if got := len(solve(t, enc, wdpt.EncodeRDFDatabase(d), wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers); got != 1 {
		t.Fatalf("encoded answers = %d", got)
	}
}

func TestFacadeFormatDatabaseRoundTrip(t *testing.T) {
	d := wdpt.NewDatabase()
	d.Insert("rel", "a value with spaces", "plain")
	back, err := wdpt.ParseDatabase(wdpt.FormatDatabase(d))
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != d.String() {
		t.Fatal("round trip changed the database")
	}
}

func TestFacadeSPARQLSyntax(t *testing.T) {
	p, err := wdpt.ParseSPARQL(`SELECT ?y ?z WHERE {
		?x recorded_by ?y .
		?x published "after_2010" .
		OPTIONAL { ?x rating ?z }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	ts := wdpt.NewTripleStore("triple")
	ts.Add("Swim", "recorded_by", "Caribou")
	ts.Add("Swim", "published", "after_2010")
	ts.Add("Swim", "rating", "2")
	answers := solve(t, p, ts.Database, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers
	if len(answers) != 1 || answers[0]["z"] != "2" {
		t.Fatalf("answers = %v", answers)
	}
	u, err := wdpt.ParseSPARQLUnion(`SELECT ?x WHERE { ?x a b } UNION SELECT ?x WHERE { ?x c d }`)
	if err != nil || len(u.Trees()) != 2 {
		t.Fatalf("union: %v", err)
	}
}

// solver is the evaluation entry point that trees, unions and the
// optimized evaluators share.
type solver interface {
	Solve(context.Context, *wdpt.Database, wdpt.SolveOptions) (wdpt.SolveResult, error)
}

// solve runs one Solve call under a background context, failing tb on
// error.
func solve(tb testing.TB, s solver, d *wdpt.Database, opts wdpt.SolveOptions) wdpt.SolveResult {
	tb.Helper()
	res, err := s.Solve(context.Background(), d, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
