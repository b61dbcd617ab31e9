package harness

import (
	"fmt"

	"wdpt/internal/approx"
	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/gen"
	"wdpt/internal/subsume"
	"wdpt/internal/uwdpt"
)

// Experiments E10 and E11: the approximation payoff of Section 5.2 and the
// union results of Section 6.

func init() {
	Register(Experiment{
		ID:    "E10",
		Title: "Approximation payoff: compute+run the WB(1)-approximation vs direct evaluation",
		Paper: "Section 5.2: O(|D| · 2^2^t(|p|)) beats |D|^O(|p|) on large databases",
		Run:   runE10,
	})
	Register(Experiment{
		ID:    "E11",
		Title: "Unions: ⋃-evaluation scales with members; UWB(k)-approximation via φ_cq",
		Paper: "Theorems 16-18",
		Run:   runE11,
	})
}

func runE10(cfg Config) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Directed 4-cycle pattern on acyclic layered databases with fan-out",
		Paper:   "Section 5.2 payoff argument",
		Columns: []string{"|D|", "t(direct eval)", "t(run approx)", "t(compute approx, once)", "winner at this |D|"},
	}
	p := gen.DirectedCycleTree(4)
	var ap = p
	computeTime := Measure(1, func() {
		a, err := approx.Approximate(cfg.Context(), p, approx.WB(1), approx.Options{Subsume: subsume.Options{Stats: cfg.Stats}})
		if err != nil {
			t.Notes = append(t.Notes, "ERROR: "+err.Error())
			return
		}
		ap = a
	})
	// Layered DAGs with fan-out: the 4-cycle never closes, but the direct
	// pattern explores outDeg² partial matches per edge (≈ n·outDeg³ work),
	// while the collapsed approximation refutes in one pass over the edges.
	sizes := []int{20, 100, 500, 2000}
	outDeg := 10
	if cfg.Quick {
		sizes = []int{10, 30}
		outDeg = 4
	}
	for _, per := range sizes {
		d := gen.LayeredDatabase(4, per, outDeg, int64(per))
		enumerate := core.SolveOptions{Mode: core.ModeEnumerate, Stats: cfg.Stats}
		tDirect := cfg.Measure(func() { cfg.solve(p, d, enumerate) })
		tApprox := cfg.Measure(func() { cfg.solve(ap, d, enumerate) })
		winner := "direct"
		if tApprox+computeTime < tDirect {
			winner = "approximation"
		}
		t.AddRow(d.Size(), tDirect, tApprox, computeTime, winner)
	}
	t.Notes = append(t.Notes,
		"the database is acyclic, so both queries are empty; the direct pattern pays the outDeg³ partial-match fan-out, the collapsed approximation fails in one edge scan",
		"the winner column charges the full one-off approximation cost to each row",
		"expected shape: a crossover — computing the approximation amortizes as |D| grows")
	return t
}

func runE11(cfg Config) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Union evaluation and UWB(1)-approximation",
		Paper:   "Theorem 16 (⋃-evaluation), Theorem 18 (UWB(k)-approximation)",
		Columns: []string{"instance", "members", "result", "time"},
	}
	eng := cfg.Engine()
	counts := []int{1, 2, 4, 8}
	if cfg.Quick {
		counts = []int{1, 2}
	}
	d := gen.LayeredDatabase(9, 40, 4, 3)
	// A positive probe short-circuits at the first member; the negative
	// probe (a vertex that is not in the database) forces the full member
	// scan, exhibiting the linear cost in the union size.
	hPos := cq.Mapping{"y0": gen.LayeredFirstVertex()}
	hNeg := cq.Mapping{"y0": "missing"}
	for _, m := range counts {
		union := buildPathUnion(m)
		var ans bool
		durPos := cfg.Measure(func() {
			ans = cfg.solve(union, d, core.SolveOptions{Mode: core.ModeExact, Mapping: hPos, Engine: eng}).Holds
		})
		t.AddRow("⋃-EVAL paths (positive)", m, ans, durPos)
		durNeg := cfg.Measure(func() {
			ans = cfg.solve(union, d, core.SolveOptions{Mode: core.ModeExact, Mapping: hNeg, Engine: eng}).Holds
		})
		t.AddRow("⋃-EVAL paths (negative)", m, ans, durNeg)
	}
	// UWB(1)-approximation of a union containing a cyclic member.
	u := uwdpt.MustNew(gen.DirectedCycleTree(3), gen.PathWDPT(2))
	var approxMembers int
	dur := Measure(1, func() {
		qs, err := uwdpt.ApproximateUWB(u, cq.TW(1), 0)
		if err != nil {
			t.Notes = append(t.Notes, "ERROR: "+err.Error())
			return
		}
		approxMembers = len(qs)
		if ok, err := uwdpt.Subsumes(cfg.Context(), uwdpt.AsUnionOfWDPTs(qs), u, subsume.Options{Stats: cfg.Stats}); !t.noteError(err) && !ok {
			t.Notes = append(t.Notes, "ERROR: approximation not subsumed by the union")
		}
	})
	t.AddRow("UWB(1)-approx (cycle ∪ path)", len(u.Trees()), fmt.Sprintf("%d CQs", approxMembers), dur)
	t.Notes = append(t.Notes,
		"expected shape: negative ⋃-EVAL time grows linearly in the member count; positive probes return at the first matching member")
	return t
}

// buildPathUnion assembles a union of chain-shaped trees of depths
// 1..members, the workload for the ⋃-EVAL sweep.
func buildPathUnion(members int) *uwdpt.Union {
	trees := make([]*core.PatternTree, members)
	for i := range trees {
		trees[i] = gen.PathWDPT(i + 1)
	}
	return uwdpt.MustNew(trees...)
}
