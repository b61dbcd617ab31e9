package wdpt_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/sparql"
)

// solvePin is one pinned Solve at Parallelism 1: an enum_deep path class
// or the first tree of the cluster_union union, with the engine the
// server's benchmark requests name (a request-fresh cqeval.Auto(), as the
// server's maximal requests run too).
type solvePin struct {
	name string
	tree *core.PatternTree
	d    *db.Database
	mode core.Mode
	// mapping is the candidate mapping of a decision mode.
	mapping cq.Mapping
	// ceiling is the allocations of one Solve, request-fresh engine
	// included, plus at most 10 % headroom (go1.24, linux/amd64, with and
	// without -race). A change may lower a ceiling but must never raise one.
	// Readings, in the order of the pins: 55 806, 121 509 and 68 668
	// (under -race) while every answer was keyed two or three times on its
	// way out; 40 940, 100 507 and 52 151 since each is keyed once. The
	// root-only path, band and Figure 1 pins read 3 126, 913, 783, 72, 17
	// and 21 when they were added. Since the root and each extension unit
	// are prepared once per Solve and project onto the variables the tree
	// reads, all nine read 17 830, 33 273, 44 561, 1 086, 531, 751, 48, 13
	// and 14. The two maximal pins then moved from the backtracking solver
	// to cqeval.Auto() and read 33 298 and 544 (-race: 33 298 and 542).
	// Since a Solve prepares each unit once per chain of nodes, not once
	// per subtree that reaches it, band enumerate and maximal read 464 and
	// 474 (-race: 463 and 473). Since expansion runs on ID rows and decodes
	// each answer once, the first six read 10 994, 25 846, 25 873, 782, 416
	// and 426 (the same under -race), and their ceilings were re-pinned.
	// Since a subtree is a comparable bitset, path_d5/y0,y2, the union
	// pins, band enumerate and maximal and figure1/exact read 10 245,
	// 24 398, 24 425, 398, 408 and 43 (-race: 10 244, 24 398, 24 425, 398,
	// 408 and 45), and their ceilings were re-pinned.
	ceiling float64
	// counters is the exact counter snapshot of one Solve.
	counters string
}

// bandPinQuery is the point_mix band tree (Figure 1 with the band a
// constant and published moved under the first OPT) for band7 of
// MusicDatabaseLarge(500, 6, 1). Its published ∧ rating unit has two atoms.
const bandPinQuery = "SELECT ?x ?z ?zp WHERE (recorded_by(?x, band7) OPT (published(?x, after_2010) AND rating(?x, ?z))) OPT formed_in(band7, ?zp)"

// figure1Answer is an answer of Figure 1 over MusicDatabaseLarge(500, 6, 1)
// defined on all four variables; figure1Partial is its (x, y) part.
var (
	figure1Answer  = cq.Mapping{"x": "rec0_2", "y": "band0", "z": "1", "zp": "1987"}
	figure1Partial = cq.Mapping{"x": "rec0_2", "y": "band0"}
)

// TestSolveAllocCeilings pins, per mode, the allocations and the counter
// snapshot of one Solve on the enum_deep, point_mix and cluster_union
// shapes (ROADMAP 3(a)). The counters must never move; the ceilings may
// only fall.
func TestSolveAllocCeilings(t *testing.T) {
	u, err := sparql.ParseUnionQuery(unionPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	layered := gen.LayeredDatabase(6, 32, 3, 1)
	music := gen.MusicDatabaseLarge(500, 6, 1)
	union := u.Trees()[0]
	band, err := sparql.ParseQuery(bandPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	figure1 := gen.MusicWDPT("x", "y", "z", "zp")
	pins := []solvePin{
		{"path_d5/y0,y2/enumerate", gen.PathWDPT(5, "y0", "y2"), layered, core.ModeEnumerate, nil, 11270,
			"core.extension_units_tested=468 cq.homomorphisms_found=1558 cq.tuples_scanned=1558 cqeval.bag_rows=1558 cqeval.bags_built=469 " +
				"cqeval.join_trees_built=2 cqeval.plan_cache_misses=2 cqeval.project_calls=469 db.dict_lookups=468 " +
				"db.index_probe_rows=2180 db.index_probes=843"},
		{"union0/enumerate", union, music, core.ModeEnumerate, nil, 26840,
			"core.extension_units_tested=1518 cq.homomorphisms_found=5242 cq.tuples_scanned=5242 cqeval.bag_rows=5242 cqeval.bags_built=1520 " +
				"cqeval.join_trees_built=2 cqeval.joins=1 cqeval.plan_cache_misses=2 cqeval.project_calls=1519 " +
				"cqeval.semijoin_passes=2 db.dict_lookups=1519 db.index_probe_rows=4484 db.index_probes=2244 db.merge_join_passes=2 db.merge_join_rows=9036"},
		{"union0/maximal", union, music, core.ModeMaximal, nil, 26870,
			"core.extension_units_tested=1518 cq.homomorphisms_found=5242 cq.tuples_scanned=5242 cqeval.bag_rows=5242 cqeval.bags_built=1520 " +
				"cqeval.join_trees_built=2 cqeval.joins=1 cqeval.plan_cache_misses=2 cqeval.project_calls=1519 " +
				"cqeval.semijoin_passes=2 db.dict_lookups=1519 db.index_probe_rows=4484 db.index_probes=2244 db.merge_join_passes=2 db.merge_join_rows=9036"},
		{"path_d5/y0/enumerate", gen.PathWDPT(5, "y0"), layered, core.ModeEnumerate, nil, 860,
			"cq.homomorphisms_found=468 cq.tuples_scanned=468 cqeval.bag_rows=468 cqeval.bags_built=1 cqeval.join_trees_built=1 " +
				"cqeval.plan_cache_misses=1 cqeval.project_calls=1"},
		{"band/enumerate", band, music, core.ModeEnumerate, nil, 438,
			"core.extension_units_tested=19 cq.homomorphisms_found=15 cq.tuples_scanned=15 cqeval.bag_rows=15 cqeval.bags_built=12 " +
				"cqeval.join_trees_built=3 cqeval.plan_cache_misses=3 cqeval.project_calls=20 db.dict_lookups=12 " +
				"db.index_probe_rows=30 db.index_probes=22"},
		{"band/maximal", band, music, core.ModeMaximal, nil, 449,
			"core.extension_units_tested=19 cq.homomorphisms_found=15 cq.tuples_scanned=15 cqeval.bag_rows=15 cqeval.bags_built=12 " +
				"cqeval.join_trees_built=3 cqeval.plan_cache_misses=3 cqeval.project_calls=20 db.dict_lookups=12 " +
				"db.index_probe_rows=30 db.index_probes=22"},
		{"figure1/exact", figure1, music, core.ModeExact, figure1Answer, 49, "core.interface_memo_misses=3 cqeval.project_calls=3"},
		{"figure1/partial", figure1, music, core.ModePartial, figure1Partial, 15, "cqeval.satisfiable_calls=1"},
		{"figure1/max", figure1, music, core.ModeMax, figure1Answer, 16, "cqeval.satisfiable_calls=1"},
	}
	for _, c := range pins {
		t.Run(c.name, func(t *testing.T) {
			solve := func(st *obs.Stats) {
				opts := core.SolveOptions{Mode: c.mode, Mapping: c.mapping, Engine: cqeval.Auto(), Stats: st, Parallelism: 1}
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
