// Query planner: the full Section 3-5 pipeline as a downstream user would
// wire it — parse a query, classify it (Table 1 placement), pick the right
// evaluation strategy (syntactic tractability → semantic optimization via
// Corollary 2 → approximation as a sound fallback), and run it.
package main

import (
	"context"
	"fmt"

	"wdpt"
)

func main() {
	d := buildGraph()

	queries := []struct{ name, src string }{
		// Syntactically tractable: chain with optional label.
		{"chain", `SELECT ?x ?l WHERE (edge(?x, ?y) AND edge(?y, ?z)) OPT label(?x, ?l)`},
		// Not syntactically tractable, but semantically: a foldable
		// symmetric square next to the answer variable.
		{"foldable-square", `ANS(?x) {
			edge(?a,?b), edge(?b,?a), edge(?b,?c), edge(?c,?b),
			edge(?c,?d), edge(?d,?c), edge(?d,?a), edge(?a,?d),
			label(?x, ?x) }`},
		// Genuinely intractable core: a directed triangle — only a sound
		// approximation is available in WB(1).
		{"triangle", `ANS(?x) { edge(?a,?b), edge(?b,?c), edge(?c,?a), label(?x, ?x) }`},
	}

	eng := wdpt.AutoEngine()
	ctx := context.Background()
	enumerate := wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}
	for _, q := range queries {
		fmt.Printf("=== query %q\n", q.name)
		p := parse(q.src)
		cl := p.Classify()
		fmt.Printf("structure: ℓ-TW(%d) ∩ BI(%d), g-TW(%d)\n", cl.LocalTW, cl.InterfaceWidth, cl.GlobalTW)

		switch {
		case cl.GlobalTW == 1:
			fmt.Println("plan: syntactically in WB(1) — evaluate directly (Theorems 6-9)")
			report(solve(p, d, enumerate).Answers)
		default:
			opt, err := wdpt.Optimize(ctx, p, wdpt.WB(1), wdpt.ApproxOptions{})
			if err != nil {
				panic(err)
			}
			if opt.Tractable() {
				fmt.Println("plan: in M(WB(1)) — evaluate through the Corollary 2 witness")
				fmt.Printf("witness: %d atoms (original: %d)\n",
					len(opt.Witness().AllAtoms()), len(p.AllAtoms()))
				// The witness preserves partial and maximal answers.
				fmt.Printf("partial{}: %v, via witness in polynomial time\n",
					solve(opt, d, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: wdpt.Mapping{}, Engine: eng}).Holds)
			} else {
				fmt.Println("plan: outside M(WB(1)) — falling back to a sound WB(1)-approximation")
				ap, err := wdpt.Approximate(ctx, p, wdpt.WB(1), wdpt.ApproxOptions{})
				if err != nil {
					panic(err)
				}
				sound, err := wdpt.Subsumes(ctx, ap, p, wdpt.SubsumeOptions{})
				if err != nil {
					panic(err)
				}
				fmt.Printf("approximation ⊑ original: %v\n", sound)
				fmt.Println("approximate answers (sound, possibly incomplete):")
				report(solve(ap, d, enumerate).Answers)
				fmt.Println("exact answers for comparison:")
				report(solve(p, d, enumerate).Answers)
			}
		}
		fmt.Println()
	}
}

func parse(src string) *wdpt.PatternTree {
	if len(src) >= 3 && (src[0] == 'A' || src[0] == '\n') {
		if p, err := wdpt.ParseWDPT(src); err == nil {
			return p
		}
	}
	p, err := wdpt.ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return p
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

func report(answers []wdpt.Mapping) {
	fmt.Printf("%d answer(s)\n", len(answers))
	for i, h := range answers {
		if i == 4 {
			fmt.Println("  ...")
			break
		}
		fmt.Println("  " + h.String())
	}
}

// buildGraph: a small directed graph containing a symmetric square, a
// directed triangle, labeled vertices, and a chain.
func buildGraph() *wdpt.Database {
	d := wdpt.NewDatabase()
	edges := [][2]string{
		{"n1", "n2"}, {"n2", "n3"}, {"n3", "n4"}, // chain
		{"s1", "s2"}, {"s2", "s1"}, {"s2", "s3"}, {"s3", "s2"}, // symmetric square
		{"s3", "s4"}, {"s4", "s3"}, {"s4", "s1"}, {"s1", "s4"},
		{"t1", "t2"}, {"t2", "t3"}, {"t3", "t1"}, // directed triangle
	}
	for _, e := range edges {
		d.Insert("edge", e[0], e[1])
	}
	d.Insert("label", "n1", "n1")
	d.Insert("label", "t1", "t1")
	return d
}
