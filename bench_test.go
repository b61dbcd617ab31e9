// Benchmarks regenerating the paper's tables and figures, one benchmark per
// artifact (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded results). `go test -bench=. -benchmem` runs them all;
// cmd/wdptbench renders the same experiments as text tables with sweeps.
package wdpt_test

import (
	"context"
	"fmt"
	"testing"

	"wdpt"
	"wdpt/internal/gen"
	"wdpt/internal/harness"
)

// benchSizes drops the largest of the given sweep sizes in -short mode, so
// that a -short -benchtime=1x pass (the race-detector smoke in
// scripts/check.sh) finishes without timeouts while full runs keep the
// paper's sweeps intact.
func benchSizes(sizes ...int) []int {
	if testing.Short() && len(sizes) > 1 {
		return sizes[:len(sizes)-1]
	}
	return sizes
}

// BenchmarkTable1EvalBoundedInterface (E1): exact evaluation on a
// ℓ-TW(1) ∩ BI(1) chain tree — the Theorem 6 interface algorithm against
// the naive band enumeration, over a layered database with fan-out.
func BenchmarkTable1EvalBoundedInterface(b *testing.B) {
	for _, depth := range benchSizes(2, 4, 6) {
		d := gen.LayeredDatabase(depth+1, 40, 4, int64(depth))
		p := gen.PathWDPT(depth)
		h := wdpt.Mapping{"y0": gen.LayeredFirstVertex()}
		eng := wdpt.AutoEngine()
		b.Run(fmt.Sprintf("interface/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solve(b, p, d, wdpt.SolveOptions{Mode: wdpt.ModeExact, Mapping: h, Engine: eng})
			}
		})
		b.Run(fmt.Sprintf("naive/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solve(b, p, d, wdpt.SolveOptions{Mode: wdpt.ModeExactNaive, Mapping: h})
			}
		})
	}
}

// BenchmarkTable1EvalGlobalHard (E2): exact evaluation on g-TW(1) WDPTs is
// NP-hard (Proposition 3) — the 3-colorability reduction on K_n.
func BenchmarkTable1EvalGlobalHard(b *testing.B) {
	eng := wdpt.AutoEngine()
	for _, n := range benchSizes(4, 5, 6) {
		p, d, h := gen.ThreeColorInstance(gen.CompleteGraph(n))
		b.Run(fmt.Sprintf("K%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solve(b, p, d, wdpt.SolveOptions{Mode: wdpt.ModeExact, Mapping: h, Engine: eng})
			}
		})
	}
}

// BenchmarkTable1PartialEval (E3): PARTIAL-EVAL stays polynomial on the
// same instances (Theorem 8).
func BenchmarkTable1PartialEval(b *testing.B) {
	eng := wdpt.AutoEngine()
	for _, n := range benchSizes(4, 6, 8) {
		p, d, h := gen.ThreeColorInstance(gen.CompleteGraph(n))
		b.Run(fmt.Sprintf("K%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solve(b, p, d, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: h, Engine: eng})
			}
		})
	}
}

// BenchmarkTable1MaxEval (E4): MAX-EVAL stays polynomial (Theorem 9).
func BenchmarkTable1MaxEval(b *testing.B) {
	eng := wdpt.AutoEngine()
	for _, n := range benchSizes(4, 6, 8) {
		p, d, h := gen.ThreeColorInstance(gen.CompleteGraph(n))
		b.Run(fmt.Sprintf("K%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solve(b, p, d, wdpt.SolveOptions{Mode: wdpt.ModeMax, Mapping: h, Engine: eng})
			}
		})
	}
}

// BenchmarkTable1Subsumption (E5): the coNP inner check of Theorem 11
// against the generic enumeration inner check.
func BenchmarkTable1Subsumption(b *testing.B) {
	for _, w := range benchSizes(2, 3) {
		p := gen.StarWDPT(w)
		b.Run(fmt.Sprintf("partialeval-inner/width=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wdpt.Subsumes(context.Background(), p, p, wdpt.SubsumeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("enumerate-inner/width=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wdpt.Subsumes(context.Background(), p, p, wdpt.SubsumeOptions{InnerEnumerate: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Membership (E6): M(WB(1)) membership on symmetric cycles.
func BenchmarkTable2Membership(b *testing.B) {
	for _, m := range benchSizes(3, 4) {
		p := gen.SymmetricCycleTree(m)
		b.Run(fmt.Sprintf("C%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := wdpt.MemberWB(context.Background(), p, wdpt.WB(1), wdpt.ApproxOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Approximation (E7): WB(1)-approximation construction.
func BenchmarkTable2Approximation(b *testing.B) {
	for _, l := range benchSizes(0, 1) {
		p := gen.TriangleWithPath(l)
		b.Run(fmt.Sprintf("pathlen=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wdpt.Approximate(context.Background(), p, wdpt.WB(1), wdpt.ApproxOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure2Blowup (E8): constructing the Figure 2 family and
// checking class membership; the measured artifact is the 2^n size ratio,
// reported as custom metrics.
func BenchmarkFigure2Blowup(b *testing.B) {
	for _, n := range benchSizes(4, 8) {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				p1 := gen.Figure2P1(n, 2)
				p2 := gen.Figure2P2(n, 2)
				ratio = float64(p2.Size()) / float64(p1.Size())
			}
			b.ReportMetric(ratio, "size-ratio")
		})
	}
}

// BenchmarkCQEngines (E9): the CQ evaluation substrate — naive vs
// Yannakakis vs decomposition-guided on unsatisfiable deep path queries.
func BenchmarkCQEngines(b *testing.B) {
	atoms := pathAtoms(6)
	d := gen.LayeredDatabase(6, 40, 4, 1)
	engines := []struct {
		name string
		eng  wdpt.Engine
	}{
		{"naive", wdpt.NaiveEngine()},
		{"yannakakis", wdpt.YannakakisEngine()},
		{"decomposition", wdpt.DecompositionEngine()},
		{"hypertree", wdpt.HypertreeEngine(2)},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.eng.Satisfiable(atoms, d, nil)
			}
		})
	}
}

func pathAtoms(l int) []wdpt.Atom {
	var atoms []wdpt.Atom
	for i := 0; i < l; i++ {
		atoms = append(atoms, wdpt.NewAtom("E",
			wdpt.V(fmt.Sprintf("x%d", i)), wdpt.V(fmt.Sprintf("x%d", i+1))))
	}
	return atoms
}

// BenchmarkApproximationPayoff (E10): running the WB(1)-approximation of a
// cyclic pattern against direct evaluation on a large acyclic database.
func BenchmarkApproximationPayoff(b *testing.B) {
	p := gen.DirectedCycleTree(4)
	ap, err := wdpt.Approximate(context.Background(), p, wdpt.WB(1), wdpt.ApproxOptions{})
	if err != nil {
		b.Fatal(err)
	}
	perLayer := 300
	if testing.Short() {
		perLayer = 60
	}
	d := gen.LayeredDatabase(4, perLayer, 10, 1)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve(b, p, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate})
		}
	})
	b.Run("approximation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve(b, ap, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate})
		}
	})
}

// BenchmarkUnionEval (E11): ⋃-EVAL scales with the number of members
// (Theorem 16).
func BenchmarkUnionEval(b *testing.B) {
	d := gen.LayeredDatabase(5, 40, 4, 3)
	h := wdpt.Mapping{"y0": gen.LayeredFirstVertex()}
	eng := wdpt.AutoEngine()
	for _, m := range benchSizes(1, 4, 8) {
		trees := make([]*wdpt.PatternTree, m)
		for i := range trees {
			trees[i] = gen.PathWDPT(i + 1)
		}
		u, err := wdpt.NewUnion(trees...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("members=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solve(b, u, d, wdpt.SolveOptions{Mode: wdpt.ModeExact, Mapping: h, Engine: eng})
			}
		})
	}
}

// BenchmarkUWBApproximation (E11): UWB(1)-approximation through the φ_cq
// translation (Theorem 18).
func BenchmarkUWBApproximation(b *testing.B) {
	u, err := wdpt.NewUnion(gen.DirectedCycleTree(3), gen.PathWDPT(2))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := wdpt.ApproximateUnion(u, wdpt.TW(1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessQuick runs every registered experiment in quick mode so
// that a single bench invocation touches the whole harness.
func BenchmarkHarnessQuick(b *testing.B) {
	cfg := harness.Config{Quick: true, Repetitions: 1}
	for i := 0; i < b.N; i++ {
		for _, e := range harness.All() {
			e.Run(cfg)
		}
	}
}

// BenchmarkRDFEncoding (E12): triple-encoded evaluation vs relational
// evaluation of the music workload (Section 2's RDF scenario).
func BenchmarkRDFEncoding(b *testing.B) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	enc := wdpt.EncodeRDF(p)
	d := gen.MusicDatabaseLarge(40, 3, 1)
	encD := wdpt.EncodeRDFDatabase(d)
	b.Run("relational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve(b, p, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate})
		}
	})
	b.Run("rdf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve(b, enc, encD, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate})
		}
	})
}

// BenchmarkFPTEvaluation (E13): PARTIAL-EVAL through the Corollary 2
// witness vs against the original M(WB(1)) tree.
func BenchmarkFPTEvaluation(b *testing.B) {
	p := gen.SymmetricCycleTree(4)
	opt, err := wdpt.Optimize(context.Background(), p, wdpt.WB(1), wdpt.ApproxOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if !opt.Tractable() {
		b.Fatal("expected a tractable witness")
	}
	tuples := 400
	if testing.Short() {
		tuples = 120
	}
	d := gen.RandomDatabase(gen.DBParams{
		DomainSize:   60,
		TuplesPerRel: tuples,
		Rels:         []gen.RelSpec{{Name: "E", Arity: 2}, {Name: "V", Arity: 1}},
	}, 1)
	eng := wdpt.AutoEngine()
	b.Run("original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve(b, p, d, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: wdpt.Mapping{}, Engine: eng})
		}
	})
	b.Run("witness", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve(b, opt, d, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: wdpt.Mapping{}, Engine: eng})
		}
	})
}
