// Quickstart: the paper's running example (Examples 1-3 and 7 of Barceló &
// Pichler, PODS 2015) end to end — build the Figure 1 pattern tree, evaluate
// it over the music database, project, and switch to the maximal-mappings
// semantics.
package main

import (
	"context"
	"fmt"

	"wdpt"
)

func main() {
	// The database of Example 2: two records by Caribou, one rated by NME.
	d := wdpt.NewDatabase()
	d.Insert("recorded_by", "Our_love", "Caribou")
	d.Insert("published", "Our_love", "after_2010")
	d.Insert("recorded_by", "Swim", "Caribou")
	d.Insert("published", "Swim", "after_2010")
	d.Insert("rating", "Swim", "2")

	// Query (1) of Example 1, in the algebraic {AND, OPT} syntax:
	// mandatory pattern plus two optional extensions.
	p, err := wdpt.ParseQuery(`
		(recorded_by(?x, ?y) AND published(?x, "after_2010"))
		OPT rating(?x, ?z)
		OPT formed_in(?y, ?zp)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("The Figure 1 pattern tree:")
	fmt.Println(p)
	fmt.Println()

	// Example 2: evaluation returns maximal partial mappings — μ1 finds no
	// rating for Our_love, μ2 finds Swim's rating; neither band has a
	// founding year, so zp stays unbound.
	fmt.Println("p(D) — Example 2:")
	for _, h := range solve(p, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers {
		fmt.Println("  " + h.String())
	}
	fmt.Println()

	// Example 3: projection to {y, z} keeps both answers, although one
	// subsumes the other.
	proj, err := wdpt.ParseQuery(`SELECT ?y ?z WHERE
		(recorded_by(?x, ?y) AND published(?x, "after_2010"))
		OPT rating(?x, ?z)
		OPT formed_in(?y, ?zp)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("projected p(D) — Example 3:")
	for _, h := range solve(proj, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers {
		fmt.Println("  " + h.String())
	}
	fmt.Println()

	// Example 7: the maximal-mappings semantics keeps only μ2.
	fmt.Println("projected p_m(D) — Example 7 (maximal mappings only):")
	for _, h := range solve(proj, d, wdpt.SolveOptions{Mode: wdpt.ModeMaximal}).Answers {
		fmt.Println("  " + h.String())
	}
	fmt.Println()

	// The decision problems of Section 3, using the tractable algorithms
	// (this tree is in ℓ-TW(1) ∩ BI(2) and g-TW(1), so all three run in
	// polynomial time — see `wdptanalyze`).
	eng := wdpt.AutoEngine()
	h := wdpt.Mapping{"y": "Caribou"}
	fmt.Printf("PARTIAL-EVAL {y -> Caribou}:     %v (extends to an answer)\n",
		solve(proj, d, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: h, Engine: eng}).Holds)
	fmt.Printf("EVAL         {y -> Caribou}:     %v (it IS an answer, Example 3)\n",
		solve(proj, d, wdpt.SolveOptions{Mode: wdpt.ModeExact, Mapping: h, Engine: eng}).Holds)
	fmt.Printf("MAX-EVAL     {y -> Caribou}:     %v (but not a maximal one)\n",
		solve(proj, d, wdpt.SolveOptions{Mode: wdpt.ModeMax, Mapping: h, Engine: eng}).Holds)
	h2 := wdpt.Mapping{"y": "Caribou", "z": "2"}
	fmt.Printf("MAX-EVAL     {y -> Caribou, z -> 2}: %v\n", solve(proj, d, wdpt.SolveOptions{Mode: wdpt.ModeMax, Mapping: h2, Engine: eng}).Holds)
}

// solve runs one evaluation through the Solve entry point; these examples
// set no budget, so an error is a bug.
func solve(p *wdpt.PatternTree, d *wdpt.Database, opts wdpt.SolveOptions) wdpt.SolveResult {
	res, err := p.Solve(context.Background(), d, opts)
	if err != nil {
		panic(err)
	}
	return res
}
