package wdpt_test

import (
	"context"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/gen"
	"wdpt/internal/uwdpt"
)

// TestSolveAnswersCanonicalOrder: Solve and Union.Solve return their
// enumeration answers strictly increasing under cq.CompareMappings, on
// every engine, in both enumeration modes, at P ∈ {1, 8}. report.SetAnswers
// records the answers as given, so the served bodies rely on this order.
func TestSolveAnswersCanonicalOrder(t *testing.T) {
	engines := map[string]func() cqeval.Engine{"nil engine": nil}
	for _, name := range []string{"auto", "naive", "yannakakis", "decomposition", "hypertree"} {
		engines[name] = func() cqeval.Engine {
			eng, err := cqeval.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
	}
	tp := gen.TreeParams{MaxDepth: 2, MaxChildren: 2, FreeProb: 0.5}
	multi := 0
	for seed := int64(1); seed <= 40; seed++ {
		p := gen.RandomWDPT(tp, seed)
		u := uwdpt.MustNew(p, gen.RandomWDPT(tp, seed+1000))
		d := gen.RandomDatabase(gen.DBParams{DomainSize: 4, TuplesPerRel: 12}, seed)
		for name, newEngine := range engines {
			for _, mode := range []core.Mode{core.ModeEnumerate, core.ModeMaximal} {
				for _, par := range []int{1, 8} {
					opts := core.SolveOptions{Mode: mode, Parallelism: par}
					if newEngine != nil {
						opts.Engine = newEngine()
					}
					res, err := p.Solve(context.Background(), d, opts)
					if err != nil {
						t.Fatal(err)
					}
					ures, err := u.Solve(context.Background(), d, opts)
					if err != nil {
						t.Fatal(err)
					}
					for side, answers := range map[string][]cq.Mapping{"tree": res.Answers, "union": ures.Answers} {
						if len(answers) > 1 {
							multi++
						}
						for i := 1; i < len(answers); i++ {
							if cq.CompareMappings(answers[i-1], answers[i]) >= 0 {
								t.Fatalf("seed %d %s %s %s P=%d: answer %d %v does not sort after answer %d %v",
									seed, side, name, mode, par, i, answers[i], i-1, answers[i-1])
							}
						}
					}
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no Solve returned more than one answer")
	}
	t.Logf("%d answer lists held more than one answer", multi)
}
