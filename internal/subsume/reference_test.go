package subsume

import (
	"context"
	"fmt"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/obs"
)

// The quotient search below is the reference the differential tests
// compare CounterExample and union subsumption against. It refutes
// p1 ⊑ p2 on every homomorphic image of the frozen atoms of every rooted
// subtree of p1 — every partition of the variables, with blocks optionally
// collapsed onto a constant of either tree — evaluating p1 in full on each
// image and running one inner check per answer. It is exponential in the
// number of variables of p1, so the tests run it under a deadline.

// ReferenceCounterExample is the quotient-search counterpart of
// CounterExample, with the same results contract.
func ReferenceCounterExample(ctx context.Context, p1, p2 *core.PatternTree, opts Options) (d *db.Database, h cq.Mapping, found bool, err error) {
	eng := opts.engine()
	st := opts.stats()
	consts := ReferenceConstants(p1, p2)
	p1.EnumerateSubtrees(func(s core.Subtree) bool {
		ReferenceQuotientDatabases(p1.SubtreeAtoms(s), consts, st, func(qd *db.Database) bool {
			if err = ctx.Err(); err != nil {
				return false
			}
			var res core.Result
			if res, err = p1.Solve(ctx, qd, core.SolveOptions{Mode: core.ModeEnumerate, Stats: st}); err != nil {
				return false
			}
			for _, a := range res.Answers {
				st.Inc(obs.CtrInnerChecks)
				var subsumed bool
				if subsumed, err = subsumedIn(ctx, tree{p2}, qd, a, opts.InnerEnumerate, eng, st); err != nil {
					return false
				}
				if !subsumed {
					d, h, found = qd, a, true
					return false
				}
			}
			return true
		})
		return !found && err == nil
	})
	if err != nil {
		return nil, nil, false, tripOf(err)
	}
	return d, h, found, nil
}

// ReferenceConstants gathers the constants mentioned by the trees.
func ReferenceConstants(trees ...*core.PatternTree) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range trees {
		for _, a := range p.AllAtoms() {
			for _, t := range a.Args {
				if !t.IsVar() && !seen[t.Value()] {
					seen[t.Value()] = true
					out = append(out, t.Value())
				}
			}
		}
	}
	return out
}

// ReferenceQuotientDatabases enumerates the homomorphic images of the
// frozen atoms: for every partition of the variables and every assignment
// of blocks to fresh constants or to constants from consts, the ground
// image database is passed to visit, and counted on st. visit returning
// false stops the enumeration.
func ReferenceQuotientDatabases(atoms []cq.Atom, consts []string, st *obs.Stats, visit func(*db.Database) bool) {
	vars := cq.AtomsVars(atoms)
	assign := make(cq.Mapping, len(vars))
	// reps tracks current block representatives among variables.
	var reps []string
	stopped := false
	var rec func(i int)
	rec = func(i int) {
		if stopped {
			return
		}
		if i == len(vars) {
			st.Inc(obs.CtrQuotientDBs)
			d := db.New()
			for _, a := range atoms {
				ground := assign.ApplyAtom(a)
				vals := make([]string, len(ground.Args))
				for j, t := range ground.Args {
					vals[j] = t.Value()
				}
				d.Insert(a.Rel, vals...)
			}
			if !visit(d) {
				stopped = true
			}
			return
		}
		v := vars[i]
		// Join an existing variable block.
		for _, r := range reps {
			assign[v] = assign[r]
			rec(i + 1)
			if stopped {
				return
			}
		}
		// Collapse onto a known constant.
		for _, c := range consts {
			assign[v] = c
			rec(i + 1)
			if stopped {
				return
			}
		}
		// Start a fresh block with its own fresh constant.
		assign[v] = fmt.Sprintf("•%s", v)
		reps = append(reps, v)
		rec(i + 1)
		reps = reps[:len(reps)-1]
		delete(assign, v)
	}
	rec(0)
}
