// Approximation: a pattern whose core join is a directed cycle (outside the
// well-behaved class WB(1)) is approximated by a tractable pattern; on a
// large acyclic database the approximation answers in a fraction of the
// time while staying sound (Section 5.2 of the paper). Also demonstrates
// M(WB(k)) membership and the UWB(k) machinery for unions.
package main

import (
	"context"
	"fmt"
	"time"

	"wdpt"
	"wdpt/internal/gen"
)

func main() {
	// A single-node pattern: a directed 4-cycle among existential
	// variables next to a free vertex marker. Its treewidth is 2, so it is
	// outside WB(1).
	p := gen.DirectedCycleTree(4)
	fmt.Println("pattern (treewidth 2, outside WB(1)):")
	fmt.Println(wdpt.FormatWDPT(p))

	ctx := context.Background()
	if _, member, err := wdpt.MemberWB(ctx, p, wdpt.WB(1), wdpt.ApproxOptions{}); err != nil {
		panic(err)
	} else if member {
		panic("the directed 4-cycle folds onto nothing tree-shaped; it must not be in M(WB(1))")
	}
	fmt.Println("p ∉ M(WB(1)) — not even semantically tree-shaped; computing an approximation instead")

	start := time.Now()
	ap, err := wdpt.Approximate(ctx, p, wdpt.WB(1), wdpt.ApproxOptions{})
	if err != nil {
		panic(err)
	}
	computeTime := time.Since(start)
	fmt.Printf("\nWB(1)-approximation (computed once, in %v):\n%s\n",
		computeTime.Round(time.Millisecond), wdpt.FormatWDPT(ap))
	sound, err := wdpt.Subsumes(ctx, ap, p, wdpt.SubsumeOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("sound by construction: approximation ⊑ p is %v\n\n", sound)

	// The payoff: a large layered (acyclic) database. The direct pattern
	// pays the full fan-out of the cycle join; the approximation refutes
	// in a single pass.
	for _, per := range []int{100, 400, 1600} {
		d := gen.LayeredDatabase(4, per, 10, int64(per))
		t0 := time.Now()
		direct := solve(p, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers
		tDirect := time.Since(t0)
		t0 = time.Now()
		approxAns := solve(ap, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers
		tApprox := time.Since(t0)
		fmt.Printf("|D| = %6d: direct %10v  approximation %10v  (answers: %d vs %d)\n",
			d.Size(), tDirect.Round(time.Microsecond), tApprox.Round(time.Microsecond),
			len(direct), len(approxAns))
	}

	// Unions drop the double-exponential WDPT machinery to plain CQ
	// approximations (Theorem 18).
	u, err := wdpt.NewUnion(p, gen.PathWDPT(2))
	if err != nil {
		panic(err)
	}
	qs, err := wdpt.ApproximateUnion(u, wdpt.TW(1), 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nUWB(1)-approximation of (cycle ∪ path): a union of %d tractable CQ(s):\n", len(qs))
	for _, q := range qs {
		fmt.Println("  " + q.String())
	}
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
