package approx

import (
	"context"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/db"
)

// Optimized is the fixed-parameter-tractable evaluator of Corollary 2: the
// (expensive, query-size-only) membership test for M(WB(k)) runs once at
// construction; if a subsumption-equivalent globally tractable witness is
// found, all subsequent PARTIAL-EVAL and MAX-EVAL queries run against the
// witness in polynomial time. Subsumption-equivalence preserves partial and
// maximal answers (Section 5), so results are identical to evaluating the
// original tree — which is property-tested.
type Optimized struct {
	original *core.PatternTree
	witness  *core.PatternTree // nil when p ∉ M(WB(k)) within the search space
}

// Optimize prepares an FPT evaluator for p with respect to WB(k) given as
// the CQ class c. The construction cost depends only on |p|; ctx bounds the
// membership search.
func Optimize(ctx context.Context, p *core.PatternTree, c cq.Class, opts Options) (*Optimized, error) {
	o := &Optimized{original: p}
	if p.HasConstants() {
		// The membership machinery is constant-free (Section 5.2); fall
		// back to the original tree, unless it is tractable as given.
		if InWB(p, c) {
			o.witness = p
		}
		return o, nil
	}
	w, ok, err := MemberWB(ctx, p, c, opts)
	if err != nil {
		return nil, err
	}
	if ok {
		o.witness = w.PruneNonProjecting()
	}
	return o, nil
}

// Tractable reports whether a globally tractable witness is available.
func (o *Optimized) Tractable() bool { return o.witness != nil }

// Witness returns the subsumption-equivalent tractable tree, or nil.
func (o *Optimized) Witness() *core.PatternTree { return o.witness }

// Solve evaluates the original tree. PARTIAL-EVAL and MAX-EVAL run on the
// witness when one exists (Corollary 2); every other mode, and every mode
// without a witness, runs on the original.
func (o *Optimized) Solve(ctx context.Context, d *db.Database, opts core.SolveOptions) (core.Result, error) {
	if o.witness != nil && (opts.Mode == core.ModePartial || opts.Mode == core.ModeMax) {
		return o.witness.Solve(ctx, d, opts)
	}
	return o.original.Solve(ctx, d, opts)
}
