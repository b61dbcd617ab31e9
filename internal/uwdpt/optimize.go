package uwdpt

import (
	"context"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/db"
)

// OptimizedUnion is the fixed-parameter-tractable union evaluator of
// Corollary 3: the M(UWB(k)) membership test of Theorem 17 runs once at
// construction; when the union is subsumption-equivalent to a union of
// tractable CQs, all subsequent ⋃-PARTIAL-EVAL and ⋃-MAX-EVAL queries run
// against that union of single-node trees in polynomial time.
type OptimizedUnion struct {
	original *Union
	witness  *Union // union of tractable single-node trees, or nil
}

// OptimizeUnion prepares the FPT evaluator. maxCQs caps the φ_cq
// enumeration (0 = no cap); when the cap is hit the membership answer may
// be incomplete and the evaluator falls back to the original union.
func OptimizeUnion(u *Union, c cq.Class, maxCQs int) *OptimizedUnion {
	o := &OptimizedUnion{original: u}
	witnesses, member, exact := MemberUWB(u, c, maxCQs)
	if member && exact {
		o.witness = AsUnionOfWDPTs(witnesses)
	}
	return o
}

// Tractable reports whether a tractable witness union is available.
func (o *OptimizedUnion) Tractable() bool { return o.witness != nil }

// Witness returns the equivalent union of tractable CQs, or nil.
func (o *OptimizedUnion) Witness() *Union { return o.witness }

// Solve evaluates the original union. ⋃-PARTIAL-EVAL and ⋃-MAX-EVAL run on
// the witness union when one exists (Corollary 3); every other mode, and
// every mode without a witness, runs on the original.
func (o *OptimizedUnion) Solve(ctx context.Context, d *db.Database, opts core.SolveOptions) (core.Result, error) {
	if o.witness != nil && (opts.Mode == core.ModePartial || opts.Mode == core.ModeMax) {
		return o.witness.Solve(ctx, d, opts)
	}
	return o.original.Solve(ctx, d, opts)
}
