package harness

import (
	"fmt"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
)

// Experiments E1-E4: the evaluation rows of Table 1.

// solveHolds runs one decision-mode Solve call under the config's
// parallelism — the single entry point all evaluation experiments now go
// through, exercising the same code path wdpteval serves.
func solveHolds(cfg Config, p *core.PatternTree, d *db.Database, mode core.Mode, h cq.Mapping, eng cqeval.Engine) bool {
	return cfg.solve(p, d, core.SolveOptions{Mode: mode, Mapping: h, Engine: eng, Parallelism: cfg.Parallelism}).Holds
}

func init() {
	Register(Experiment{
		ID:    "E1",
		Title: "EVAL on ℓ-TW(1) ∩ BI(1): interface algorithm (Thm 6) vs naive subtree enumeration",
		Paper: "Table 1, row EVAL, column ℓ-C(k) ∩ BI(c) (LOGCFL) vs column general",
		Run:   runE1,
	})
	Register(Experiment{
		ID:    "E2",
		Title: "EVAL on g-TW(1) stays NP-hard: 3-colorability reduction on K_n",
		Paper: "Table 1, row EVAL, column g-C(k) (NP-complete, Proposition 3)",
		Run:   runE2,
	})
	Register(Experiment{
		ID:    "E3",
		Title: "PARTIAL-EVAL on g-TW(1) is tractable on the same hard instances",
		Paper: "Table 1, row P-EVAL, column g-C(k) (LOGCFL, Theorem 8)",
		Run:   runE3,
	})
	Register(Experiment{
		ID:    "E4",
		Title: "MAX-EVAL on g-TW(1) is tractable on the same hard instances",
		Paper: "Table 1, row M-EVAL, column g-C(k) (LOGCFL, Theorem 9)",
		Run:   runE4,
	})
}

// runE1 sweeps the depth of a chain-shaped WDPT over a layered graph with
// fan-out: the naive engine enumerates outDeg^depth homomorphisms, the
// interface algorithm stays polynomial.
func runE1(cfg Config) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "EVAL: interface algorithm vs naive band enumeration",
		Paper:   "Table 1 row EVAL: ℓ-TW(1)∩BI(1) is tractable; general WDPTs are not",
		Columns: []string{"depth", "|D|", "answer", "t(interface)", "t(naive)"},
	}
	depths := []int{2, 4, 6, 8}
	perLayer, outDeg := 60, 4
	if cfg.Quick {
		depths = []int{2, 3}
		perLayer = 10
	}
	eng := cfg.Engine()
	for _, depth := range depths {
		d := gen.LayeredDatabase(depth+1, perLayer, outDeg, int64(depth))
		p := gen.PathWDPT(depth)
		h := cq.Mapping{"y0": gen.LayeredFirstVertex()}
		var ansFast, ansNaive bool
		tFast := cfg.Measure(func() { ansFast = solveHolds(cfg, p, d, core.ModeExact, h, eng) })
		tNaive := cfg.Measure(func() { ansNaive = solveHolds(cfg, p, d, core.ModeExactNaive, h, nil) })
		if ansFast != ansNaive {
			t.Notes = append(t.Notes, fmt.Sprintf("DISAGREEMENT at depth %d", depth))
		}
		t.AddRow(depth, d.Size(), ansFast, tFast, tNaive)
	}
	t.Notes = append(t.Notes,
		"expected shape: t(interface) grows polynomially with depth and |D|; t(naive) grows like outDeg^depth")
	// A second sweep: database size at fixed depth, interface engine only —
	// the near-linear data-complexity claim of Theorem 7.
	depth := 4
	if cfg.Quick {
		depth = 2
	}
	sizes := []int{20, 40, 80, 160}
	if cfg.Quick {
		sizes = []int{10, 20}
	}
	for _, per := range sizes {
		d := gen.LayeredDatabase(depth+1, per, outDeg, 7)
		p := gen.PathWDPT(depth)
		h := cq.Mapping{"y0": gen.LayeredFirstVertex()}
		tFast := cfg.Measure(func() { solveHolds(cfg, p, d, core.ModeExact, h, eng) })
		t.AddRow(depth, d.Size(), "-", tFast, "-")
	}
	return t
}

func runE2(cfg Config) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "EVAL on g-TW(1): 3-colorability of K_n (never 3-colorable for n ≥ 4)",
		Paper:   "Proposition 3: EVAL(g-TW(k)) is NP-complete",
		Columns: []string{"n", "edges", "3-colorable", "t(EVAL)"},
	}
	ns := []int{4, 5, 6, 7, 8}
	if cfg.Quick {
		ns = []int{4, 5}
	}
	eng := cfg.Engine()
	for _, n := range ns {
		g := gen.CompleteGraph(n)
		p, d, h := gen.ThreeColorInstance(g)
		var ans bool
		dur := cfg.Measure(func() { ans = solveHolds(cfg, p, d, core.ModeExact, h, eng) })
		t.AddRow(n, len(g.Edges), ans, dur)
	}
	t.Notes = append(t.Notes, "expected shape: ~3x per added vertex (3^n colorings refuted)")
	return t
}

func runE3(cfg Config) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "PARTIAL-EVAL on the same 3-colorability instances",
		Paper:   "Theorem 8: PARTIAL-EVAL(g-TW(k)) ∈ LOGCFL",
		Columns: []string{"n", "edges", "partial answer", "t(P-EVAL minimal subtree)", "t(P-EVAL enumerate ablation)"},
	}
	ns := []int{4, 5, 6, 7, 8}
	if cfg.Quick {
		ns = []int{4, 5}
	}
	eng := cfg.Engine()
	for _, n := range ns {
		g := gen.CompleteGraph(n)
		p, d, h := gen.ThreeColorInstance(g)
		var ans bool
		dur := cfg.Measure(func() { ans = solveHolds(cfg, p, d, core.ModePartial, h, eng) })
		t.AddRow(fmt.Sprintf("K%d", n), len(g.Edges), ans, dur, "-")
	}
	// The enumerate-all-subtrees ablation pays 2^(3|E|) subtrees on negative
	// instances (x -> 0 never matches, so every subtree is re-checked),
	// while the minimal-subtree algorithm refutes at the root. Only small
	// cycles are feasible for the ablation.
	cycles := []int{3, 4}
	if !cfg.Quick {
		cycles = []int{3, 4, 5}
	}
	for _, n := range cycles {
		g := gen.CycleGraph(n)
		p, d, _ := gen.ThreeColorInstance(g)
		hNeg := cq.Mapping{"x": "0"}
		var ans bool
		dur := cfg.Measure(func() { ans = solveHolds(cfg, p, d, core.ModePartial, hNeg, eng) })
		durEnum := Measure(1, func() { p.PartialEvalEnumerate(d, hNeg) })
		t.AddRow(fmt.Sprintf("C%d (neg)", n), len(g.Edges), ans, dur, durEnum)
	}
	t.Notes = append(t.Notes,
		"expected shape: flat/polynomial in n where E2 explodes; the enumerate ablation pays 2^(3|E|) subtrees")
	return t
}

func runE4(cfg Config) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "MAX-EVAL on the same 3-colorability instances",
		Paper:   "Theorem 9: MAX-EVAL(g-TW(k)) ∈ LOGCFL",
		Columns: []string{"n", "edges", "maximal answer", "t(M-EVAL)"},
	}
	ns := []int{4, 5, 6, 7, 8}
	if cfg.Quick {
		ns = []int{4, 5}
	}
	eng := cfg.Engine()
	for _, n := range ns {
		g := gen.CompleteGraph(n)
		p, d, h := gen.ThreeColorInstance(g)
		var ans bool
		dur := cfg.Measure(func() { ans = solveHolds(cfg, p, d, core.ModeMax, h, eng) })
		t.AddRow(n, len(g.Edges), ans, dur)
	}
	t.Notes = append(t.Notes, "expected shape: polynomial in n, like E3")
	return t
}
