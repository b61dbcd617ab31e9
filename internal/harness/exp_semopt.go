package harness

import (
	"fmt"
	"time"

	"wdpt/internal/approx"
	"wdpt/internal/core"
	"wdpt/internal/gen"
	"wdpt/internal/subsume"
)

// Experiments E6-E8: Table 2 (semantic optimization) and Figure 2 /
// Theorem 15 (the unavoidable exponential approximation blow-up).

func init() {
	Register(Experiment{
		ID:    "E6",
		Title: "WB(k)-membership: symmetric cycles (members for even length) vs odd cycles",
		Paper: "Table 2, row WB(k)-Membership (Theorem 13 / Proposition 7)",
		Run:   runE6,
	})
	Register(Experiment{
		ID:    "E7",
		Title: "WB(k)-approximation construction on growing non-member trees",
		Paper: "Table 2, row WB(k)-Approximation (Theorem 14 / Proposition 8)",
		Run:   runE7,
	})
	Register(Experiment{
		ID:    "E8",
		Title: "Figure 2 blow-up family: |p2(n)| / |p1(n)| grows like 2^n",
		Paper: "Figure 2 / Theorem 15",
		Run:   runE8,
	})
}

func runE6(cfg Config) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "M(WB(1)) membership of symmetric m-cycle trees",
		Paper:   "Theorem 13: membership is decidable; Proposition 7: Π₂ᴾ-hard",
		Columns: []string{"cycle", "|p|", "member", "t(membership)"},
	}
	ms := []int{3, 4, 5}
	if cfg.Quick {
		ms = []int{3, 4}
	}
	for _, m := range ms {
		p := gen.SymmetricCycleTree(m)
		var member bool
		var err error
		dur := cfg.Measure(func() {
			_, member, err = approx.MemberWB(cfg.Context(), p, approx.WB(1), approx.Options{Parallelism: cfg.Parallelism, Subsume: subsume.Options{Stats: cfg.Stats}})
		})
		t.noteError(err)
		wantMember := m%2 == 0
		if member != wantMember {
			t.Notes = append(t.Notes, fmt.Sprintf("ERROR: m=%d member=%v want %v", m, member, wantMember))
		}
		t.AddRow(fmt.Sprintf("C%d (sym)", m), p.Size(), member, dur)
	}
	t.Notes = append(t.Notes,
		"even symmetric cycles fold to an edge (members); odd ones are cores of treewidth 2 (non-members)",
		"expected shape: time grows with the Bell-number quotient space of the cycle variables")
	return t
}

func runE7(cfg Config) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "WB(1)-approximation of triangle+path trees",
		Paper:   "Theorem 14: approximations exist and are computable",
		Columns: []string{"path len", "|p|", "|approx|", "t(approximate)"},
	}
	lens := []int{0, 1, 2, 3, 4}
	if cfg.Quick {
		lens = []int{0, 1}
	}
	for _, l := range lens {
		p := gen.TriangleWithPath(l)
		// Path length 4 takes about 0.35 s a run, so it is timed once:
		// warm-up and repetitions would add a second to the sweep.
		measure := cfg.Measure
		if l == 4 {
			measure = func(fn func()) time.Duration { return Measure(1, fn) }
		}
		var size int
		var subsumed bool
		var err error
		dur := measure(func() {
			var ap *core.PatternTree
			if ap, err = approx.Approximate(cfg.Context(), p, approx.WB(1), approx.Options{Parallelism: cfg.Parallelism, Subsume: subsume.Options{Stats: cfg.Stats}}); err != nil {
				return
			}
			size = ap.Size()
			subsumed, err = subsume.Subsumes(cfg.Context(), ap, p, subsume.Options{Stats: cfg.Stats})
		})
		if !t.noteError(err) && !subsumed {
			t.Notes = append(t.Notes, "ERROR: approximation not subsumed by p")
		}
		t.AddRow(l, p.Size(), size, dur)
	}
	t.Notes = append(t.Notes,
		"expected shape: approximation size tracks |p| (the triangle collapses, the path survives); time grows with the quotient space")
	return t
}

func runE8(cfg Config) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Sizes of the Figure 2 family (k = 2)",
		Paper:   "Theorem 15: |p1| = O(n²), |p2| = Ω(2^n), and p2 ⊑ p1 with p2 ∈ WB(k)",
		Columns: []string{"n", "|p1|", "|p2|", "ratio", "p1 ∈ WB(2)", "p2 ∈ WB(2)"},
	}
	const k = 2
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if cfg.Quick {
		ns = []int{1, 2, 3, 4}
	}
	for _, n := range ns {
		p1 := gen.Figure2P1(n, k)
		p2 := gen.Figure2P2(n, k)
		in1 := approx.InWB(p1, approx.WB(k))
		in2 := approx.InWB(p2, approx.WB(k))
		if in1 || !in2 {
			t.Notes = append(t.Notes, fmt.Sprintf("ERROR at n=%d: p1∈WB=%v p2∈WB=%v", n, in1, in2))
		}
		t.AddRow(n, p1.Size(), p2.Size(), float64(p2.Size())/float64(p1.Size()), in1, in2)
	}
	if !cfg.Quick {
		// Verify the subsumption claim on the smallest instance (the test
		// suite re-checks it; here it documents the family).
		p1 := gen.Figure2P1(1, k)
		p2 := gen.Figure2P2(1, k)
		ok, err := subsume.Subsumes(cfg.Context(), p2, p1, subsume.Options{Stats: cfg.Stats})
		switch {
		case t.noteError(err):
		case !ok:
			t.Notes = append(t.Notes, "ERROR: p2 ⊑ p1 failed at n=1")
		default:
			t.Notes = append(t.Notes, "verified: p2 ⊑ p1 at n=1 (exact subsumption test)")
		}
	}
	t.Notes = append(t.Notes, "expected shape: ratio doubles with every n")
	return t
}
