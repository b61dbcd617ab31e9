package wdpt_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/sparql"
)

// solvePin is one pinned Solve at Parallelism 1: an enum_deep path class
// or the first tree of the cluster_union union, with the engines the
// server's benchmark requests name (a request-fresh cqeval.Auto() to
// enumerate, the backtracking solver for maximal).
type solvePin struct {
	name string
	tree *core.PatternTree
	d    *db.Database
	mode core.Mode
	auto bool
	// ceiling is the allocations of one Solve, request-fresh engine
	// included, plus at most 10 % headroom (go1.24, linux/amd64, with and
	// without -race). A change may lower a ceiling but must never raise one.
	// Readings, in the order of the pins: 55 806, 121 509 and 68 668
	// (under -race) while every answer was keyed two or three times on its
	// way out; 40 940, 100 507 and 52 151 since each is keyed once.
	ceiling float64
	// counters is the exact counter snapshot of one Solve.
	counters string
}

// TestSolveAllocCeilings pins, per mode, the allocations and the counter
// snapshot of one Solve on the enum_deep and cluster_union shapes (ROADMAP
// 3(a)). The counters must never move; the ceilings may only fall.
func TestSolveAllocCeilings(t *testing.T) {
	u, err := sparql.ParseUnionQuery(unionPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	layered := gen.LayeredDatabase(6, 32, 3, 1)
	music := gen.MusicDatabaseLarge(500, 6, 1)
	union := u.Trees()[0]
	pins := []solvePin{
		{"path_d5/y0,y2/enumerate", gen.PathWDPT(5, "y0", "y2"), layered, core.ModeEnumerate, true, 45000,
			"core.extension_units_tested=468 cq.homomorphisms_found=1558 cq.tuples_scanned=1558 cqeval.bag_rows=1558 cqeval.bags_built=469 " +
				"cqeval.join_trees_built=2 cqeval.plan_cache_hits=467 cqeval.plan_cache_misses=2 cqeval.project_calls=469 db.dict_lookups=468 " +
				"db.index_probe_rows=2180 db.index_probes=843"},
		{"union0/enumerate", union, music, core.ModeEnumerate, true, 110500,
			"core.extension_units_tested=1518 cq.homomorphisms_found=5242 cq.tuples_scanned=5242 cqeval.bag_rows=5242 cqeval.bags_built=1520 " +
				"cqeval.join_trees_built=2 cqeval.joins=1 cqeval.plan_cache_hits=1517 cqeval.plan_cache_misses=2 cqeval.project_calls=1519 " +
				"cqeval.semijoin_passes=2 db.dict_lookups=1519 db.index_probe_rows=4484 db.index_probes=2244 db.merge_join_passes=2 db.merge_join_rows=9036"},
		{"union0/maximal", union, music, core.ModeMaximal, false, 57300,
			"core.extension_units_tested=1518 cq.homomorphisms_found=2242 cq.tuples_scanned=3760 db.dict_lookups=1519 " +
				"db.index_probe_rows=7520 db.index_probes=5280"},
	}
	for _, c := range pins {
		t.Run(c.name, func(t *testing.T) {
			solve := func(st *obs.Stats) {
				opts := core.SolveOptions{Mode: c.mode, Stats: st, Parallelism: 1}
				if c.auto {
					opts.Engine = cqeval.Auto()
				}
				if _, err := c.tree.Solve(context.Background(), c.d, opts); err != nil {
					t.Fatal(err)
				}
			}
			st := obs.NewStats()
			solve(st)
			if got := renderCounters(st.Snapshot()); got != c.counters {
				t.Errorf("counters\n%s\nwant\n%s", got, c.counters)
			}
			allocs := testing.AllocsPerRun(3, func() { solve(nil) })
			t.Logf("%.0f allocs (ceiling %.0f)", allocs, c.ceiling)
			if allocs > c.ceiling {
				t.Errorf("%.0f allocs per Solve, ceiling %.0f", allocs, c.ceiling)
			}
		})
	}
}

// renderCounters renders a counter snapshot as its name=value pairs in
// name order.
func renderCounters(snap map[string]int64) string {
	lines := make([]string, 0, len(snap))
	for name, v := range snap {
		lines = append(lines, fmt.Sprintf("%s=%d", name, v))
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}
