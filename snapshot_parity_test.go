package wdpt_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"wdpt"
	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/gen"
	"wdpt/internal/sparql"
)

// Storage-path equivalence. There is one storage layout, but a database
// reaches it along three paths: rows inserted one at a time and then
// sealed (the text loader), columns bulk-loaded with canonical IDs (the
// snapshot loader), and rows copied one at a time into a fresh dictionary
// that is never sealed (Database.Clone). For any database, query, engine,
// parallelism and budget, all three must produce byte-identical answer
// lists and identical evaluation counters: the path may only change where
// the rows come from, never which rows or how much evaluation work is
// recorded. The suite's names predate the single layout, when the axis was
// the storage backend. Runs under -race in CI.

// dropDBCounters removes the db.* storage counters before comparing
// snapshots: the contract (docs/STORAGE.md) only promises
// evaluation-layer counters.
func dropDBCounters(snap map[string]int64) map[string]int64 {
	for name := range snap {
		if strings.HasPrefix(name, "db.") {
			delete(snap, name)
		}
	}
	return snap
}

// solveCounted evaluates p over d and returns the rendered answers, the
// evaluation counters, and the error. The engine in opts must be freshly
// constructed per call: its plan cache is per-instance state, and a shared
// engine would hand the second run a warm cache the first one had to fill.
func solveCounted(t *testing.T, p *wdpt.PatternTree, d *db.Database, opts wdpt.SolveOptions) (string, map[string]int64, error) {
	t.Helper()
	st := wdpt.NewStats()
	opts.Stats = st
	res, err := p.Solve(context.Background(), d, opts)
	return renderSolutions(res.Answers), dropDBCounters(dropParCounters(st.Snapshot())), err
}

// storagePaths returns d (inserted and sealed) together with the same
// facts bulk-loaded from its snapshot and copied row by row.
func storagePaths(t testing.TB, d *db.Database) map[string]*db.Database {
	t.Helper()
	blob, err := snapshot.Encode(d)
	if err != nil {
		t.Fatalf("encoding snapshot: %v", err)
	}
	loaded, err := snapshot.Decode(blob, db.DefaultBackend())
	if err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	return map[string]*db.Database{"sealed": d, "snapshot": loaded, "clone": d.Clone()}
}

// sameSolve solves p on every storage path of d with options from mkOpts
// and requires agreement with the sealed original.
func sameSolve(t *testing.T, p *wdpt.PatternTree, d *db.Database, mkOpts func() wdpt.SolveOptions) {
	t.Helper()
	paths := storagePaths(t, d)
	wantAns, wantCtrs, wantErr := solveCounted(t, p, paths["sealed"], mkOpts())
	for _, name := range []string{"snapshot", "clone"} {
		gotAns, gotCtrs, gotErr := solveCounted(t, p, paths[name], mkOpts())
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error disagreement: sealed=%v %s=%v", name, wantErr, name, gotErr)
		}
		if gotAns != wantAns {
			t.Errorf("answers differ:\n--- sealed\n%s--- %s\n%s", wantAns, name, gotAns)
		}
		snapshotDiff(t, gotCtrs, wantCtrs)
	}
}

// equivCases is the shared fixture pool: the Figure 1 fixture plus seeded
// random tree/database pairs with constants in atoms (exercising the
// dictionary-miss path: some query constants are absent from the data).
func equivCases() []struct {
	name string
	p    *wdpt.PatternTree
	d    *db.Database
} {
	tp := gen.TreeParams{MaxDepth: 2, MaxChildren: 2, AtomsPerNode: 2, ConstProb: 0.3}
	type equivCase = struct {
		name string
		p    *wdpt.PatternTree
		d    *db.Database
	}
	cases := []equivCase{{"figure1", gen.MusicWDPT("x", "y", "z", "zp"), gen.MusicDatabase()}}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, equivCase{
			fmt.Sprintf("random%d", seed),
			gen.RandomWDPT(tp, seed),
			gen.RandomDatabase(gen.DBParams{DomainSize: 5, TuplesPerRel: 25}, seed),
		})
	}
	return cases
}

// TestBackendEquivalenceSolve pins byte-identical answers and identical
// evaluation counters across storage paths, engines, and the parallelism
// sweep.
func TestBackendEquivalenceSolve(t *testing.T) {
	engines := []struct {
		name string
		mk   func() wdpt.Engine
	}{
		{"naive", wdpt.NaiveEngine},
		{"yannakakis", wdpt.YannakakisEngine},
		{"auto", wdpt.AutoEngine},
	}
	for _, c := range equivCases() {
		for _, e := range engines {
			for _, par := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/p%d", c.name, e.name, par), func(t *testing.T) {
					sameSolve(t, c.p, c.d, func() wdpt.SolveOptions {
						return wdpt.SolveOptions{Mode: wdpt.ModeEnumerate, Engine: e.mk(), Parallelism: par}
					})
				})
			}
		}
	}
}

// TestBackendEquivalenceDegraded pins the guard contract across storage
// paths: under a tripping tuple budget every path degrades identically
// (same sentinel), and under an answer cap with fallback every path
// returns the same truncated prefix and marks it degraded.
func TestBackendEquivalenceDegraded(t *testing.T) {
	p := gen.MusicWDPT("x", "y", "z", "zp")
	paths := storagePaths(t, gen.MusicDatabase())

	t.Run("tuple-budget-trip", func(t *testing.T) {
		for name, d := range paths {
			_, _, err := solveCounted(t, p, d, wdpt.SolveOptions{
				Mode:   wdpt.ModeEnumerate,
				Engine: wdpt.YannakakisEngine(),
				Budget: wdpt.Budget{MaxTuples: 3},
			})
			if !errors.Is(err, wdpt.ErrTupleBudget) {
				t.Fatalf("%s: want ErrTupleBudget, got %v", name, err)
			}
		}
	})

	t.Run("answer-cap-degraded", func(t *testing.T) {
		prefixes := map[string]bool{}
		for name, d := range paths {
			res, err := p.Solve(context.Background(), d, wdpt.SolveOptions{
				Mode:     wdpt.ModeEnumerate,
				Engine:   wdpt.YannakakisEngine(),
				Budget:   wdpt.Budget{MaxAnswers: 1},
				Fallback: true,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Degraded {
				t.Fatalf("%s: want Degraded", name)
			}
			prefixes[renderSolutions(res.Answers)] = true
		}
		if len(prefixes) != 1 {
			t.Errorf("degraded prefixes differ across storage paths: %v", prefixes)
		}
	})
}

// FuzzBackendEquivalence derives a seeded random tree/database pair from
// the fuzz input and checks Solve parity across storage paths. The seed
// corpus covers the dictionary-heavy shapes (constants in atoms, skewed
// domains).
func FuzzBackendEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(12), false)
	f.Add(int64(7), uint8(2), uint8(30), true)
	f.Add(int64(42), uint8(9), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, domain, tuples uint8, consts bool) {
		tp := gen.TreeParams{MaxDepth: 2, MaxChildren: 2, AtomsPerNode: 2}
		if consts {
			tp.ConstProb = 0.4
		}
		p := gen.RandomWDPT(tp, seed)
		d := gen.RandomDatabase(gen.DBParams{
			DomainSize:   1 + int(domain%10),
			TuplesPerRel: 1 + int(tuples%40),
		}, seed)
		sameSolve(t, p, d, func() wdpt.SolveOptions {
			return wdpt.SolveOptions{Mode: wdpt.ModeEnumerate, Engine: wdpt.AutoEngine()}
		})
	})
}

// TestSnapshotParity is the acceptance contract of the persistence format
// (docs/STORAGE.md): a database that travels text -> Seal -> snapshot ->
// load must answer every query byte-identically to the directly parsed
// database, with identical evaluation counters, across the parallelism
// sweep. The col leg solves on both databases as loaded; the mem leg on
// row-by-row in-memory copies of both (Database.Clone).
func TestSnapshotParity(t *testing.T) {
	for _, c := range equivCases() {
		// Round-trip through the text format first, so the snapshot source
		// is the same sealed database every operator data path produces.
		parsed, err := sparql.ParseDatabase(sparql.FormatDatabase(c.d))
		if err != nil {
			t.Fatalf("%s: reparsing fixture: %v", c.name, err)
		}
		blob, err := snapshot.Encode(parsed)
		if err != nil {
			t.Fatalf("%s: encoding snapshot: %v", c.name, err)
		}
		loaded, err := snapshot.Decode(blob, db.DefaultBackend())
		if err != nil {
			t.Fatalf("%s: decoding snapshot: %v", c.name, err)
		}
		legs := []struct {
			name          string
			parsed, saved *db.Database
		}{
			{"col", parsed, loaded},
			{"mem", parsed.Clone(), loaded.Clone()},
		}
		for _, leg := range legs {
			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/p%d", c.name, leg.name, par), func(t *testing.T) {
					mkOpts := func() wdpt.SolveOptions {
						return wdpt.SolveOptions{
							Mode:        wdpt.ModeEnumerate,
							Engine:      wdpt.AutoEngine(),
							Parallelism: par,
						}
					}
					wantAns, wantCtrs, wantErr := solveCounted(t, c.p, leg.parsed, mkOpts())
					gotAns, gotCtrs, gotErr := solveCounted(t, c.p, leg.saved, mkOpts())
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("error disagreement: parsed=%v snapshot=%v", wantErr, gotErr)
					}
					if wantAns != gotAns {
						t.Errorf("answers differ between parsed and snapshot-loaded data:\n--- parsed\n%s--- snapshot\n%s", wantAns, gotAns)
					}
					snapshotDiff(t, gotCtrs, wantCtrs)
				})
			}
		}
	}
}
