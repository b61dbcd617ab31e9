package cqeval

import (
	"fmt"
	"testing"

	"wdpt/internal/cq"
)

// TestOneShotAllocationCeilings pins the allocations of one unprepared
// Satisfiable / Project call (warm plan cache) for a four-atom path query
// over a 200-edge path with one bound variable. The four-struct
// implementation measured 855/976 (join tree) and 747/869 (decomposition);
// pre-sizing the cache key took two off each. One Prepare plus one run,
// whose bag search keeps every search slot and so needs no dedup set,
// measures 163/266 and 293/397; the ceilings are those plus 10 %. A
// refactor that adds per-call
// setup — a wrapper value, a second instantiation, a re-rendered cache key —
// shows up here before it shows up as microseconds on the server's point
// queries.
func TestOneShotAllocationCeilings(t *testing.T) {
	d := pathDB(200)
	d.Seal()
	var atoms []cq.Atom
	for i := 0; i < 4; i++ {
		atoms = append(atoms, cq.NewAtom("E", cq.V(fmt.Sprintf("x%d", i)), cq.V(fmt.Sprintf("x%d", i+1))))
	}
	fixed := cq.Mapping{"x0": "0"}
	proj := []string{"x0", "x4"}
	for _, c := range []struct {
		eng                  Engine
		satisfiable, project float64
	}{
		{Yannakakis(), 180, 293},
		{Auto(), 180, 293},
		{Decomposition(), 323, 437},
	} {
		if got := testing.AllocsPerRun(20, func() { c.eng.Satisfiable(atoms, d, fixed) }); got > c.satisfiable {
			t.Errorf("%s Satisfiable: %v allocs/op, ceiling %v", c.eng.Name(), got, c.satisfiable)
		}
		if got := testing.AllocsPerRun(20, func() { c.eng.Project(atoms, d, fixed, proj) }); got > c.project {
			t.Errorf("%s Project: %v allocs/op, ceiling %v", c.eng.Name(), got, c.project)
		}
	}
}
