// Package uwdpt implements unions of well-designed pattern trees (UWDPTs),
// Section 6 of Barceló & Pichler (PODS 2015): union evaluation in its three
// variants (Theorem 16), the translation φ ↦ φ_cq into unions of CQs, union
// subsumption and subsumption-equivalence, membership in M(UWB(k)) via
// Proposition 9 / Theorem 17, and UWB(k)-approximations via per-CQ
// approximations (Theorem 18).
package uwdpt

import (
	"context"
	"fmt"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/par"
	"wdpt/internal/subsume"
)

// Union is a union of WDPTs φ = p_1 ∪ ... ∪ p_n. Members need not share
// free variables.
type Union struct {
	trees []*core.PatternTree
}

// New builds a union; at least one member is required.
func New(trees ...*core.PatternTree) (*Union, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("uwdpt: a union needs at least one member")
	}
	return &Union{trees: append([]*core.PatternTree(nil), trees...)}, nil
}

// MustNew is New that panics on error.
func MustNew(trees ...*core.PatternTree) *Union {
	u, err := New(trees...)
	if err != nil {
		// Must-constructor: panicking on invalid literals is its documented contract
		panic(err)
	}
	return u
}

// Trees returns the member WDPTs. Must not be modified.
func (u *Union) Trees() []*core.PatternTree { return u.trees }

// Size returns the total size of the members.
func (u *Union) Size() int {
	n := 0
	for _, p := range u.trees {
		n += p.Size()
	}
	return n
}

// Solve is the consolidated union entry point, mirroring
// core.PatternTree.Solve over φ = p_1 ∪ ... ∪ p_n (Theorem 16). The
// enumeration modes evaluate the members — in parallel when
// opts.Parallelism > 1 — and merge their answer sets in member order, so
// results are byte-identical at every parallelism level. The decision modes
// are member-level disjunctions: sequentially they short-circuit on the
// first witnessing member (the historical behavior and counter totals); in
// parallel every member is evaluated, so decision-mode work counters may
// exceed the sequential totals when a early member already witnesses.
//
// Guardrails mirror core.Solve: one guard meter spans the whole union
// evaluation (members share the budget through SolveOptions.Meter rather
// than getting it afresh), budget trips and panics surface as
// *guard.TripError values, Solve never panics, and with Fallback set a
// tripped decision mode retries the entire union down the degradation
// ladder (docs/ROBUSTNESS.md).
func (u *Union) Solve(ctx context.Context, d *db.Database, opts core.SolveOptions) (res core.Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := opts.Stats
	if st == nil {
		st = cqeval.StatsOf(opts.Engine)
	}
	defer func() {
		// Boundary backstop; solveAttempt recovers evaluation panics.
		if r := recover(); r != nil {
			res, err = core.Result{}, guard.AsError(r, st)
		}
	}()
	if opts.Meter != nil {
		return u.solveAttempt(ctx, d, opts.Mode, opts, st, opts.Meter)
	}
	res, err = u.solveAttempt(ctx, d, opts.Mode, opts, st, guard.NewMeter(ctx, opts.Budget, st))
	if err == nil || !opts.Fallback || !guard.Degradable(err) {
		return res, err
	}
	for _, mode := range core.FallbackLadder(opts.Mode) {
		if cerr := ctx.Err(); cerr != nil {
			return core.Result{}, cerr
		}
		st.Inc(obs.CtrGuardFallbackHops)
		res, err = u.solveAttempt(ctx, d, mode, opts, st, guard.NewMeter(ctx, opts.Budget, st))
		if err == nil {
			res.Degraded, res.DegradedMode = true, mode
			return res, nil
		}
		if !guard.Degradable(err) {
			return core.Result{}, err
		}
	}
	return core.Result{}, err
}

// solveAttempt runs one union evaluation attempt of the given mode with all
// members sharing the meter m, recovering any panic below it into an error
// (member Solve calls recover their own, but ProperExtensionExists runs
// outside a member boundary).
func (u *Union) solveAttempt(ctx context.Context, d *db.Database, mode core.Mode, opts core.SolveOptions, st *obs.Stats, m *guard.Meter) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = core.Result{}, guard.AsError(r, st)
		}
	}()
	switch mode {
	case core.ModeEnumerate, core.ModeMaximal:
		memberOpts := opts
		memberOpts.Mode = core.ModeEnumerate
		memberOpts.Budget = guard.Budget{}
		memberOpts.Fallback = false
		memberOpts.Meter = m
		pool := par.New(opts.Parallelism, st)
		type memberOut struct {
			answers []cq.Mapping
			err     error
		}
		outs := par.Map(pool, len(u.trees), func(i int) memberOut {
			out, merr := u.trees[i].Solve(ctx, d, memberOpts)
			return memberOut{answers: out.Answers, err: merr}
		})
		// Member answers come back in canonical order, so the union is a
		// merge of their keys.
		keys := make([][][]string, len(outs))
		for i, out := range outs {
			if out.err != nil {
				return core.Result{}, out.err
			}
			keys[i] = cq.Keys(out.answers)
		}
		refs := cq.MergeKeys(keys, mode == core.ModeMaximal)
		answers := make([]cq.Mapping, len(refs))
		for i, r := range refs {
			answers[i] = outs[r.List].answers[r.Index]
		}
		res = core.Result{Answers: answers}
		if m.Truncated() {
			// The shared answer cap fired in some member: keep the merged
			// partial set, marked Degraded (with the typed error when no
			// fallback was requested).
			res.Degraded, res.DegradedMode = true, mode
			if opts.Fallback || opts.Meter != nil {
				return res, nil
			}
			return res, m.AnswerLimitError()
		}
		return res, nil
	case core.ModeExact, core.ModeExactNaive, core.ModePartial:
		attemptOpts := opts
		attemptOpts.Mode = mode
		holds, err := u.anyMember(ctx, d, attemptOpts, st, m)
		return core.Result{Holds: holds}, err
	case core.ModeMax:
		// h is ⊑-maximal in φ(D) iff it is a partial answer of some member
		// and no member has an answer properly extending it (Theorem 16.2).
		partialOpts := opts
		partialOpts.Mode = core.ModePartial
		holds, err := u.anyMember(ctx, d, partialOpts, st, m)
		if err != nil || !holds {
			return core.Result{}, err
		}
		eng := u.resolveEngine(opts, st, m)
		pool := par.New(opts.Parallelism, st)
		if !pool.Parallel() {
			for _, p := range u.trees {
				if p.ProperExtensionExists(d, opts.Mapping, eng) {
					return core.Result{}, nil
				}
			}
			return core.Result{Holds: true}, nil
		}
		extended := par.Map(pool, len(u.trees), func(i int) bool {
			return u.trees[i].ProperExtensionExists(d, opts.Mapping, eng)
		})
		for _, ext := range extended {
			if ext {
				return core.Result{}, nil
			}
		}
		return core.Result{Holds: true}, nil
	}
	return core.Result{}, fmt.Errorf("uwdpt: unknown solve mode %v", mode)
}

// resolveEngine mirrors core.Solve's engine defaulting at the union level,
// so one engine (and one plan cache) is shared across all member tests.
func (u *Union) resolveEngine(opts core.SolveOptions, st *obs.Stats, m *guard.Meter) cqeval.Engine {
	eng := opts.Engine
	if eng == nil {
		eng = cqeval.WithStats(cqeval.Auto(), st)
	} else if opts.Stats != nil && cqeval.StatsOf(eng) != opts.Stats {
		eng = cqeval.WithStats(eng, opts.Stats)
	}
	return cqeval.WithMeter(cqeval.WithPool(eng, par.New(opts.Parallelism, st)), m)
}

// anyMember decides the member-level disjunction behind the union decision
// modes, counting one uwdpt.member_evals per member actually evaluated. All
// members share the meter m.
func (u *Union) anyMember(ctx context.Context, d *db.Database, opts core.SolveOptions, st *obs.Stats, m *guard.Meter) (bool, error) {
	memberOpts := opts
	memberOpts.Engine = u.resolveEngine(opts, st, m)
	memberOpts.Stats = nil // already wired into the engine
	memberOpts.Budget = guard.Budget{}
	memberOpts.Fallback = false
	memberOpts.Meter = m
	pool := par.New(opts.Parallelism, st)
	if !pool.Parallel() {
		for _, p := range u.trees {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			st.Inc(obs.CtrUnionMemberEvals)
			res, err := p.Solve(ctx, d, memberOpts)
			if err != nil {
				return false, err
			}
			if res.Holds {
				return true, nil
			}
		}
		return false, nil
	}
	st.Add(obs.CtrUnionMemberEvals, int64(len(u.trees)))
	type memberOut struct {
		holds bool
		err   error
	}
	outs := par.Map(pool, len(u.trees), func(i int) memberOut {
		res, err := u.trees[i].Solve(ctx, d, memberOpts)
		return memberOut{holds: res.Holds, err: err}
	})
	holds := false
	for _, out := range outs {
		if out.err != nil {
			return false, out.err
		}
		holds = holds || out.holds
	}
	return holds, nil
}

// CQTranslation computes φ_cq (Section 6): the union, over members p and
// rooted subtrees T' of p, of the projected CQs r_T'. The number of
// subtrees can be exponential; maxCQs caps the output (0 = no cap).
// Duplicate CQs (same atoms and free variables) are merged; each emitted CQ
// is counted on st.
func (u *Union) CQTranslation(maxCQs int, st *obs.Stats) []*cq.CQ {
	var out []*cq.CQ
	seen := make(map[string]bool)
	for _, p := range u.trees {
		p.EnumerateSubtrees(func(s core.Subtree) bool {
			q := p.SubtreeProjectedCQ(s)
			key := q.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, q)
				st.Inc(obs.CtrUnionCQs)
			}
			return maxCQs == 0 || len(out) < maxCQs
		})
		if maxCQs != 0 && len(out) >= maxCQs {
			break
		}
	}
	return out
}

// Subsumes decides φ ⊑ φ': over every database, every answer of φ is
// subsumed by an answer of φ'. That holds iff every member of φ is
// subsumed by φ', which subsume.Refute decides with ⋃-PARTIAL-EVAL of φ'
// (Theorem 16) as the inner check, or a scan of φ'(D) with
// opts.InnerEnumerate. Counters go to opts.Stats, and the first error
// stops the test.
func Subsumes(ctx context.Context, u1, u2 *Union, opts subsume.Options) (bool, error) {
	for _, p := range u1.trees {
		if _, _, found, err := subsume.Refute(ctx, p, u2, opts); found || err != nil {
			return false, err
		}
	}
	return true, nil
}

// Equivalent decides subsumption-equivalence of unions.
func Equivalent(ctx context.Context, u1, u2 *Union, opts subsume.Options) (bool, error) {
	if ok, err := Subsumes(ctx, u1, u2, opts); !ok || err != nil {
		return false, err
	}
	return Subsumes(ctx, u2, u1, opts)
}
