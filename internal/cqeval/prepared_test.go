package cqeval

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// planningCounters are the counters of fetching a plan shape, which a
// prepared query records on the first run that reaches its bags and a
// one-shot call on every call.
var planningCounters = []string{
	"cqeval.plan_cache_hits", "cqeval.plan_cache_misses", "cqeval.plan_cache_evictions",
	"cqeval.join_trees_built", "cqeval.decompositions_built", "cqeval.ghds_built", "cqeval.fallbacks",
}

// runCounters renders the counters recorded between two snapshots, the
// planning counters left out.
func runCounters(before, after map[string]int64) string {
	var out []string
	for name, v := range after {
		if d := v - before[name]; d != 0 && !slices.Contains(planningCounters, name) {
			out = append(out, fmt.Sprintf("%s=%d", name, d))
		}
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

// preparedBindings returns the bindings TestPreparedMatchesOneShot runs an
// instance's prepared query under: the instance's own, another ordinary
// one, one giving two bound variables the same value, and one binding a
// value absent from the dictionary.
func preparedBindings(fixed cq.Mapping, bound []string) []cq.Mapping {
	own := fixed.Restrict(bound)
	other, same, absent := cq.Mapping{}, own.Clone(), own.Clone()
	for _, v := range bound {
		other[v] = map[string]string{"0": "1", "1": "2", "2": "0"}[fixed[v]]
	}
	if len(bound) >= 2 {
		same[bound[1]] = same[bound[0]]
	}
	absent[bound[0]] = "no_such_term"
	return []cq.Mapping{own, other, same, absent}
}

// TestPreparedMatchesOneShot runs one Prepare per digest instance with
// bound variables, on every engine, under several bindings of the same
// bound set (the instances alternate sealed and unsealed dictionaries),
// and requires each Run to return the rows, record the counters and charge
// the meter that a fresh one-shot Project does under the same binding. The
// planning counters are left out: a prepared query looks its shape up
// once. The prepared queries then run again from 8 goroutines at once.
func TestPreparedMatchesOneShot(t *testing.T) {
	type job struct {
		q     *Prepared
		d     *db.Database
		fixed [][]uint32
		want  [][]cq.Mapping
	}
	var jobs []job
	for _, name := range []string{"auto", "naive", "yannakakis", "decomposition", "hypertree"} {
		coincided := 0
		for i := 0; i < digestCases; i++ {
			atoms, d, fixed, proj := digestInstance(i)
			var bound []string
			for _, v := range cq.AtomsVars(atoms) {
				if _, ok := fixed[v]; ok {
					bound = append(bound, v)
				}
			}
			if len(bound) == 0 {
				continue
			}
			base, _ := ByName(name)
			st := obs.NewStats()
			gm := guard.NewMeter(context.Background(), guard.Budget{MaxTuples: 1 << 40}, nil)
			q := Prepare(WithMeter(WithStats(base, st), gm), atoms, d, bound, proj)
			j := job{q: q, d: d}
			for _, h := range preparedBindings(fixed, bound) {
				ids := make([]uint32, len(bound))
				for k, v := range bound {
					ids[k], _ = d.Dict().ID(h[v])
				}
				before, charged := st.Snapshot(), gm.Tuples()
				got := runDecoded(q, d, ids)
				gotCounters, gotCharge := runCounters(before, st.Snapshot()), gm.Tuples()-charged

				fresh, _ := ByName(name)
				wantSt := obs.NewStats()
				wantGm := guard.NewMeter(context.Background(), guard.Budget{MaxTuples: 1 << 40}, nil)
				// The one-shot call takes the binding with the projection
				// variables' values, as core passes a whole mapping.
				want := WithMeter(WithStats(fresh, wantSt), wantGm).Project(atoms, d, h, proj)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s #%d %v: rows %v, one-shot %v", name, i, h, got, want)
				}
				if w := runCounters(nil, wantSt.Snapshot()); gotCounters != w {
					t.Fatalf("%s #%d %v: counters\n%s\none-shot\n%s", name, i, h, gotCounters, w)
				}
				if gotCharge != wantGm.Tuples() {
					t.Fatalf("%s #%d %v: charged %d, one-shot %d", name, i, h, gotCharge, wantGm.Tuples())
				}
				if len(bound) >= 2 && h[bound[0]] == h[bound[1]] {
					coincided++
				}
				j.fixed, j.want = append(j.fixed, ids), append(j.want, got)
			}
			jobs = append(jobs, j)
		}
		t.Logf("%s: %d bindings with two bound variables equal", name, coincided)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k+w*len(jobs)/8)%len(jobs)]
				for b, ids := range j.fixed {
					if got := runDecoded(j.q, j.d, ids); fmt.Sprint(got) != fmt.Sprint(j.want[b]) {
						errs <- fmt.Sprintf("goroutine %d: rows %v, want %v", w, got, j.want[b])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPreparedForeignEngine: an engine from outside the package is run
// through its Project, and a binding outside the dictionary reaches it as
// a value the database lacks.
func TestPreparedForeignEngine(t *testing.T) {
	d := pathDB(4)
	atoms := []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))}
	q := Prepare(foreignEngine{Naive()}, atoms, d, []string{"x"}, []string{"x", "y"})
	id, _ := d.Dict().ID("1")
	if got := fmt.Sprint(runDecoded(q, d, []uint32{id})); got != "[{x -> 1, y -> 2}]" {
		t.Fatalf("Run(1) = %s", got)
	}
	if got := runDecoded(q, d, []uint32{db.NoID}); len(got) != 0 {
		t.Fatalf("Run(NoID) = %v, want no rows", got)
	}
}

// foreignEngine hides an engine's package-private interfaces.
type foreignEngine struct{ Engine }

// runDecoded runs q under fixed and decodes its rows over q.Vars(), with
// the bound projection variables fixed gives a dictionary term added.
func runDecoded(q *Prepared, d *db.Database, fixed []uint32) []cq.Mapping {
	rows, n := q.Run(fixed)
	w := len(q.Vars())
	out := make([]cq.Mapping, n)
	for i := range out {
		out[i] = cq.Mapping{}
		for k, v := range q.Vars() {
			out[i][v] = d.Dict().Term(rows[i*w+k])
		}
		for k, v := range q.bound {
			if slices.Contains(q.proj, v) && fixed[k] != db.NoID {
				out[i][v] = d.Dict().Term(fixed[k])
			}
		}
	}
	return out
}
