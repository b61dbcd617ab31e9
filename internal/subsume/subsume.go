// Package subsume implements the static-analysis problems of Section 4 of
// Barceló & Pichler (PODS 2015): subsumption p1 ⊑ p2, subsumption-
// equivalence ≡s, and equivalence under the maximal-mappings semantics ≡max
// (equal to ≡s by Proposition 5).
//
// The decision procedure follows the small-model property underlying the
// Π₂ᴾ upper bound: p1 ⊑ p2 can be refuted iff it can be refuted on a
// database that is a homomorphic image of the frozen canonical database of
// some rooted subtree of p1 — i.e. a quotient of its variables, with blocks
// optionally collapsed onto the constants mentioned by either tree. For each
// such candidate database D and answer h ∈ p1(D), the check "some answer of
// p2 over D subsumes h" is exactly PARTIAL-EVAL(p2, D, h), which is where
// the asymmetry of Theorem 11 comes from: when p2 is globally tractable the
// inner check runs in polynomial time and overall membership drops from
// Π₂ᴾ to coNP.
//
// Every evaluation inside the search is a Solve call under the caller's
// context, so a deadline or cancellation stops the search with an error.
package subsume

import (
	"context"
	"fmt"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// Options configures the subsumption test.
type Options struct {
	// Engine used for the inner PARTIAL-EVAL checks; defaults to
	// cqeval.Auto(), which is the tractable path when the right-hand tree
	// is globally tractable (Theorem 11).
	Engine cqeval.Engine
	// InnerEnumerate switches the inner check to full enumeration of
	// p2(D) — the ablation baseline corresponding to the generic Π₂ᴾ
	// procedure.
	InnerEnumerate bool
	// Stats receives work counters (quotient databases enumerated, inner
	// checks performed). When nil but Engine carries a sink attached with
	// cqeval.WithStats, that sink is used.
	Stats *obs.Stats
}

func (o Options) engine() cqeval.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return cqeval.Auto()
}

// stats resolves the sink: the explicit one, else the engine's.
func (o Options) stats() *obs.Stats {
	if o.Stats != nil {
		return o.Stats
	}
	return cqeval.StatsOf(o.Engine)
}

// Subsumes decides p1 ⊑ p2: over every database, every answer of p1 is
// subsumed by an answer of p2. The test is exact; its running time is
// exponential in the size of p1 (the problem is Π₂ᴾ-complete, Section 4).
func Subsumes(ctx context.Context, p1, p2 *core.PatternTree, opts Options) (bool, error) {
	_, _, found, err := CounterExample(ctx, p1, p2, opts)
	return !found && err == nil, err
}

// CounterExample searches for a witness against p1 ⊑ p2: a database D and
// an answer h ∈ p1(D) not subsumed by any answer of p2 over D. found=false
// with a nil error means p1 ⊑ p2 holds. A deadline or cancellation of ctx
// surfaces as a *guard.TripError.
func CounterExample(ctx context.Context, p1, p2 *core.PatternTree, opts Options) (d *db.Database, h cq.Mapping, found bool, err error) {
	eng := opts.engine()
	st := opts.stats()
	consts := collectConstants(p1, p2)
	p1.EnumerateSubtrees(func(s core.Subtree) bool {
		QuotientDatabases(p1.SubtreeAtoms(s), consts, st, func(qd *db.Database) bool {
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
				if subsumed, err = subsumedIn(ctx, p2, qd, a, opts.InnerEnumerate, eng, st); err != nil {
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

// subsumedIn reports whether some answer of p over d subsumes h: by
// PARTIAL-EVAL (Theorem 11's inner check) or, with enumerate, by scanning
// p(D) — the generic Π₂ᴾ ablation.
func subsumedIn(ctx context.Context, p *core.PatternTree, d *db.Database, h cq.Mapping, enumerate bool, eng cqeval.Engine, st *obs.Stats) (bool, error) {
	if !enumerate {
		res, err := p.Solve(ctx, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng})
		return res.Holds, err
	}
	res, err := p.Solve(ctx, d, core.SolveOptions{Mode: core.ModeEnumerate, Stats: st})
	if err != nil {
		return false, err
	}
	for _, g := range res.Answers {
		if h.SubsumedBy(g) {
			return true, nil
		}
	}
	return false, nil
}

// tripOf reports a bare context error the way a tripped meter does, so a
// deadline matches guard.ErrDeadline whether a Solve call or the search
// loop noticed it first.
func tripOf(err error) error {
	if err == context.Canceled || err == context.DeadlineExceeded {
		return &guard.TripError{Reason: err}
	}
	return err
}

// Equivalent decides subsumption-equivalence p1 ≡s p2 (both directions).
func Equivalent(ctx context.Context, p1, p2 *core.PatternTree, opts Options) (bool, error) {
	if ok, err := Subsumes(ctx, p1, p2, opts); !ok || err != nil {
		return false, err
	}
	return Subsumes(ctx, p2, p1, opts)
}

// MaxEquivalent decides p1 ≡max p2: p1_m(D) = p2_m(D) over every database.
// By Proposition 5 this coincides with subsumption-equivalence, which is how
// it is decided here; tests cross-validate the proposition semantically.
func MaxEquivalent(ctx context.Context, p1, p2 *core.PatternTree, opts Options) (bool, error) {
	return Equivalent(ctx, p1, p2, opts)
}

// collectConstants gathers the constants mentioned by both trees.
func collectConstants(trees ...*core.PatternTree) []string {
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

// QuotientDatabases enumerates the homomorphic images of the frozen atoms:
// for every partition of the variables and every assignment of blocks to
// fresh constants or to constants from consts, the ground image database is
// passed to visit, and counted on st. visit returning false stops the
// enumeration. This is the small-model space on which subsumption of
// (unions of) WDPTs can be refuted.
func QuotientDatabases(atoms []cq.Atom, consts []string, st *obs.Stats, visit func(*db.Database) bool) {
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
