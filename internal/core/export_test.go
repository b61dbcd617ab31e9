package core

import (
	"context"

	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
)

// SolveUnpruned runs one evaluation attempt of opts.Mode on p exactly as
// given, without Solve's Lemma 1 pruning: the reference side of the
// pruning property tests.
func (p *PatternTree) SolveUnpruned(ctx context.Context, d *db.Database, opts SolveOptions) (Result, error) {
	st := opts.Stats
	if st == nil {
		st = cqeval.StatsOf(opts.Engine)
	}
	return p.solveAttempt(ctx, d, opts.Mode, opts, st, guard.NewMeter(ctx, opts.Budget, st))
}

// Lemma1 returns the pruned form Solve evaluates for p.
func (p *PatternTree) Lemma1() *PatternTree { return p.lemma1() }
