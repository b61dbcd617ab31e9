package wdpt_test

import (
	"context"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cqeval"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/rdf"
	"wdpt/internal/subsume"
)

// TestPlanCounterPins pins the full counter snapshot of the three
// workloads on which the structural engines lose to backtracking (ROADMAP
// item 20), on auto, decomposition and hypertree:
//   - e10: E10's directed 4-cycle tree enumerated over its quick layered
//     database, whose cycle is planned on a min-fill tree decomposition or
//     a GHD;
//   - e5: E5's p ⊑ p on StarWDPT(3) with the engine running the inner
//     PARTIAL-EVAL checks (each binding leaves those no bag work);
//   - e12: E12's triple-encoded Figure 1 enumerated over the larger quick
//     music database.
//
// These are the "before" state of the reduced decompositions and the
// binding-seeded bags: a change that means to move them re-pins the
// numbers it moves and says so.
func TestPlanCounterPins(t *testing.T) {
	cycle := gen.DirectedCycleTree(4)
	layered := gen.LayeredDatabase(4, 30, 4, 30)
	star := gen.StarWDPT(3)
	music := gen.MusicWDPT("x", "y", "z", "zp")
	encoded, encodedDB := rdf.Encode(music), rdf.EncodeDatabase(gen.MusicDatabaseLarge(10, 2, 10))
	engines := []struct {
		name string
		make func() cqeval.Engine
	}{
		{"auto", cqeval.Auto},
		{"decomposition", cqeval.Decomposition},
		{"hypertree", func() cqeval.Engine { return cqeval.Hypertree(3) }},
	}
	runs := []struct {
		name string
		run  func(eng cqeval.Engine, st *obs.Stats) error
	}{
		{"e10", func(eng cqeval.Engine, st *obs.Stats) error {
			_, err := cycle.Solve(context.Background(), layered, core.SolveOptions{Mode: core.ModeEnumerate, Engine: eng, Stats: st, Parallelism: 1})
			return err
		}},
		{"e5", func(eng cqeval.Engine, st *obs.Stats) error {
			_, err := subsume.Subsumes(context.Background(), star, star, subsume.Options{Engine: eng, Stats: st})
			return err
		}},
		{"e12", func(eng cqeval.Engine, st *obs.Stats) error {
			_, err := encoded.Solve(context.Background(), encodedDB, core.SolveOptions{Mode: core.ModeEnumerate, Engine: eng, Stats: st, Parallelism: 1})
			return err
		}},
	}
	const e5 = "cqeval.satisfiable_calls=8 subsume.inner_checks=8 subsume.quotient_databases=8"
	want := map[string]string{
		"e10/auto": "cq.homomorphisms_found=1814 cq.tuples_scanned=2484 cqeval.bag_rows=5354 cqeval.bags_built=5 " +
			"cqeval.decompositions_built=1 cqeval.domain_product_rows=3540 cqeval.fallbacks=1 cqeval.plan_cache_misses=2 " +
			"cqeval.project_calls=1 cqeval.semijoin_passes=1 db.index_probe_rows=3388 db.index_probes=1117 " +
			"db.merge_join_passes=1 db.merge_join_rows=1694",
		"e10/decomposition": "cq.homomorphisms_found=1814 cq.tuples_scanned=2484 cqeval.bag_rows=5354 cqeval.bags_built=5 " +
			"cqeval.decompositions_built=1 cqeval.domain_product_rows=3540 cqeval.plan_cache_misses=1 " +
			"cqeval.project_calls=1 cqeval.semijoin_passes=1 db.index_probe_rows=3388 db.index_probes=1117 " +
			"db.merge_join_passes=1 db.merge_join_rows=1694",
		"e10/hypertree": "cq.homomorphisms_found=4458 cq.tuples_scanned=6647 cqeval.bag_rows=1278 cqeval.bags_built=5 " +
			"cqeval.ghds_built=1 cqeval.plan_cache_misses=1 cqeval.project_calls=1 cqeval.semijoin_passes=1 " +
			"db.index_probe_rows=11307 db.index_probes=3737 db.merge_join_passes=1 db.merge_join_rows=848",
		"e5/auto":          e5,
		"e5/decomposition": e5,
		"e5/hypertree":     e5,
		"e12/auto": "core.extension_units_tested=36 cq.homomorphisms_found=2645 cq.tuples_scanned=2679 cqeval.bag_rows=2645 " +
			"cqeval.bags_built=114 cqeval.join_trees_built=3 cqeval.joins=53 cqeval.plan_cache_misses=3 " +
			"cqeval.project_calls=37 cqeval.semijoin_passes=114 db.dict_lookups=189 db.index_probe_rows=9633 " +
			"db.index_probes=303 db.merge_join_passes=3 db.merge_join_rows=231",
		"e12/decomposition": "core.extension_units_tested=36 cq.homomorphisms_found=112 cq.tuples_scanned=349 cqeval.bag_rows=1933 " +
			"cqeval.bags_built=76 cqeval.decompositions_built=3 cqeval.domain_product_rows=1821 cqeval.joins=27 " +
			"cqeval.plan_cache_misses=3 cqeval.project_calls=37 cqeval.semijoin_passes=54 db.dict_lookups=189 " +
			"db.index_probe_rows=10603 db.index_probes=393 db.merge_join_passes=1 db.merge_join_rows=77",
		"e12/hypertree": "core.extension_units_tested=36 cq.homomorphisms_found=2184 cq.tuples_scanned=2421 cqeval.bag_rows=1032 " +
			"cqeval.bags_built=76 cqeval.ghds_built=3 cqeval.joins=27 cqeval.plan_cache_misses=3 cqeval.project_calls=37 " +
			"cqeval.semijoin_passes=54 db.dict_lookups=227 db.index_probe_rows=14804 db.index_probes=468 " +
			"db.merge_join_passes=1 db.merge_join_rows=77",
	}
	for _, r := range runs {
		for _, e := range engines {
			name := r.name + "/" + e.name
			t.Run(name, func(t *testing.T) {
				st := obs.NewStats()
				if err := r.run(e.make(), st); err != nil {
					t.Fatal(err)
				}
				if got := renderCounters(st.Snapshot()); got != want[name] {
					t.Errorf("counters\n%s\nwant\n%s", got, want[name])
				}
			})
		}
	}
}
