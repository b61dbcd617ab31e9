package wdpt_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wdpt"
	"wdpt/internal/gen"
)

// Determinism of the consolidated Solve API on the Figure 1 fixture: at any
// Parallelism the answer list is byte-identical (same solutions, same
// order) and every non-par.* counter lands on the sequential total. This is
// the root-level pin of the tentpole guarantee; internal/harness has the
// sweep-level counterpart over E1-E6/E14.

// renderSolutions serializes an answer list byte-stably (the list order is
// the library's canonical order; keys within a mapping are sorted here).
func renderSolutions(ms []wdpt.Mapping) string {
	var b strings.Builder
	for _, m := range ms {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%s;", k, m[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func dropParCounters(snap map[string]int64) map[string]int64 {
	for name := range snap {
		if strings.HasPrefix(name, "par.") {
			delete(snap, name)
		}
	}
	return snap
}

func TestSolveDeterminismFigure1(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	engines := []struct {
		name string
		mk   func() wdpt.Engine
	}{
		{"naive", wdpt.NaiveEngine},
		{"yannakakis", wdpt.YannakakisEngine},
		{"auto", wdpt.AutoEngine},
	}
	modes := []wdpt.SolveMode{wdpt.ModeEnumerate, wdpt.ModeMaximal}
	for _, e := range engines {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", e.name, mode), func(t *testing.T) {
				run := func(par int) (string, map[string]int64, map[string]int64) {
					st := wdpt.NewStats()
					res, err := p.Solve(context.Background(), d, wdpt.SolveOptions{
						Mode:        mode,
						Engine:      wdpt.WithStats(e.mk(), st),
						Parallelism: par,
					})
					if err != nil {
						t.Fatalf("Solve(parallelism=%d): %v", par, err)
					}
					full := st.Snapshot()
					par_ := map[string]int64{}
					for name, v := range full {
						if strings.HasPrefix(name, "par.") {
							par_[name] = v
						}
					}
					return renderSolutions(res.Answers), dropParCounters(full), par_
				}
				baseAns, baseSnap, basePar := run(1)
				if len(basePar) != 0 {
					t.Errorf("parallelism=1 recorded par.* counters: %v", basePar)
				}
				if baseAns == "" {
					t.Fatal("no answers on the Figure 1 fixture")
				}
				for _, par := range []int{2, 8} {
					ans, snap, _ := run(par)
					if ans != baseAns {
						t.Errorf("answers differ at parallelism %d:\n--- 1\n%s--- %d\n%s", par, baseAns, par, ans)
					}
					snapshotDiff(t, snap, baseSnap)
				}
			})
		}
	}
}

// TestSolveSequentialMatchesLegacyCounters pins that Solve at
// Parallelism ≤ 1 reproduces the exact counter totals of the historical
// sequential evaluator — the same numbers TestCounterExactnessYannakakis
// pins for an engine-driven ModeEnumerate call.
func TestSolveSequentialMatchesLegacyCounters(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	st := wdpt.NewStats()
	res, err := p.Solve(context.Background(), d, wdpt.SolveOptions{
		Mode:   wdpt.ModeEnumerate,
		Engine: wdpt.WithStats(wdpt.YannakakisEngine(), st),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("p(D) has %d answers, want 2", len(res.Answers))
	}
	snapshotDiff(t, st.Snapshot(), map[string]int64{
		"core.extension_units_tested": 5,
		"cq.homomorphisms_found":      5,
		"cq.tuples_scanned":           5,
		"cqeval.bag_rows":             5,
		"cqeval.bags_built":           7,
		"cqeval.join_trees_built":     3,
		"cqeval.joins":                1,
		"cqeval.plan_cache_misses":    3,
		"cqeval.project_calls":        6,
		"cqeval.semijoin_passes":      2,
		"db.dict_lookups":             6,
		"db.index_probes":             5,
		"db.index_probe_rows":         6,
	})
}

// TestSolveDecisionModesParallel checks the decision modes agree at every
// parallelism level on both positive and negative instances.
func TestSolveDecisionModesParallel(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	d := gen.MusicDatabase()
	base, err := p.Solve(context.Background(), d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate})
	if err != nil || len(base.Answers) == 0 {
		t.Fatalf("enumerate: %v (%d answers)", err, len(base.Answers))
	}
	hYes := base.Answers[0]
	hNo := wdpt.Mapping{"x": "no_such_album", "y": "nobody"}
	for _, mode := range []wdpt.SolveMode{wdpt.ModeExact, wdpt.ModeExactNaive, wdpt.ModePartial, wdpt.ModeMax} {
		for _, par := range []int{1, 2, 8} {
			for h, want := range map[string]bool{"yes": true, "no": false} {
				m := hYes
				if h == "no" {
					m = hNo
				}
				if mode == wdpt.ModeMax && h == "yes" {
					// hYes is a (maximal) answer of p(D); for ModePartial it
					// is also a partial answer. Both expect true. ModeExact
					// expects membership in p(D) — also true.
					want = true
				}
				res, err := p.Solve(context.Background(), d, wdpt.SolveOptions{
					Mode:        mode,
					Mapping:     m,
					Parallelism: par,
				})
				if err != nil {
					t.Fatalf("%v/%s par=%d: %v", mode, h, par, err)
				}
				if res.Holds != want {
					t.Errorf("%v/%s par=%d: Holds=%v, want %v", mode, h, par, res.Holds, want)
				}
			}
		}
	}
}

// TestUnionSolveDeterminism checks Union.Solve merges member answers in a
// byte-stable order at every parallelism level.
func TestUnionSolveDeterminism(t *testing.T) {
	p1 := gen.MusicWDPT("x", "y", "z", "zp")
	p2 := gen.MusicWDPT("x", "y")
	u, err := wdpt.NewUnion(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	d := gen.MusicDatabase()
	run := func(par int) string {
		res, err := u.Solve(context.Background(), d, wdpt.SolveOptions{
			Mode:        wdpt.ModeEnumerate,
			Parallelism: par,
		})
		if err != nil {
			t.Fatalf("union Solve(parallelism=%d): %v", par, err)
		}
		return renderSolutions(res.Answers)
	}
	base := run(1)
	if base == "" {
		t.Fatal("union produced no answers")
	}
	for _, par := range []int{2, 8} {
		if got := run(par); got != base {
			t.Errorf("union answers differ at parallelism %d:\n--- 1\n%s--- %d\n%s", par, base, par, got)
		}
	}
}
