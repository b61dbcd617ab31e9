// Semantic web: RDF triple patterns over a triple store, parsed from the
// {AND, OPT} SPARQL-style syntax of Pérez et al. — including the
// well-designedness check rejecting a bad query, structural analysis, and
// union queries (Section 6).
package main

import (
	"context"
	"fmt"

	"wdpt"
)

func main() {
	ts := wdpt.NewTripleStore("triple")
	addData(ts)

	// Example 1 as an RDF query: triple patterns are written (s, p, o).
	p, err := wdpt.ParseQuery(`
		((?x, recorded_by, ?y) AND (?x, published, "after_2010"))
		OPT (?x, nme_rating, ?z)
		OPT (?y, formed_in, ?zp)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("RDF pattern tree:")
	fmt.Println(p)
	fmt.Println()
	fmt.Println("answers:")
	for _, h := range solve(p, ts.Database, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers {
		fmt.Println("  " + h.String())
	}
	fmt.Println()

	// All lower bounds of the paper hold already for RDF WDPTs; the
	// classifiers apply unchanged (the schema is one ternary relation).
	cl := p.Classify()
	fmt.Printf("structure: %d nodes, ℓ-TW(%d) ∩ BI(%d), g-TW(%d)\n\n",
		cl.Nodes, cl.LocalTW, cl.InterfaceWidth, cl.GlobalTW)

	// A non-well-designed pattern is rejected with a diagnostic: ?z is
	// used in an optional part and outside it without being anchored.
	_, err = wdpt.ParseQuery(`((?x, a, ?y) OPT (?x, b, ?z)) AND (?z, c, ?w)`)
	fmt.Println("non-well-designed query rejected:")
	fmt.Printf("  %v\n\n", err)

	// Unions of WDPTs (Section 6): bands found via either recorded or
	// performed credits.
	u, err := wdpt.ParseUnionQuery(`
		SELECT ?y WHERE ((?x, recorded_by, ?y) AND (?x, published, "after_2010"))
		UNION
		SELECT ?y WHERE (?x, performed_by, ?y)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("union query answers:")
	for _, h := range solve(u, ts.Database, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers {
		fmt.Println("  " + h.String())
	}
	eng := wdpt.AutoEngine()
	fmt.Printf("⋃-PARTIAL-EVAL {y -> Caribou}: %v\n",
		solve(u, ts.Database, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: wdpt.Mapping{"y": "Caribou"}, Engine: eng}).Holds)
}

// solve runs one evaluation through the Solve entry point shared by trees,
// unions and the optimized evaluators; these examples set no budget, so an
// error is a bug.
func solve(s interface {
	Solve(context.Context, *wdpt.Database, wdpt.SolveOptions) (wdpt.SolveResult, error)
}, d *wdpt.Database, opts wdpt.SolveOptions) wdpt.SolveResult {
	res, err := s.Solve(context.Background(), d, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func addData(ts *wdpt.TripleStore) {
	ts.Add("Our_love", "recorded_by", "Caribou")
	ts.Add("Our_love", "published", "after_2010")
	ts.Add("Swim", "recorded_by", "Caribou")
	ts.Add("Swim", "published", "after_2010")
	ts.Add("Swim", "nme_rating", "2")
	ts.Add("Caribou", "formed_in", "2001")
	ts.Add("Live_at_Pompeii", "performed_by", "Pink_Floyd")
}
