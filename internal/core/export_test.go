package core

import (
	"context"

	"wdpt/internal/cq"
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

// UnitShape is one extension unit as Solve's prepared-unit table sees it:
// the key it is filed under and what cqeval.Prepare reads of it.
type UnitShape struct {
	First, Last int
	Atoms       []cq.Atom
	Bound, Proj []string
}

// ExtensionUnitShapes returns the shape of each extension unit of s.
func (p *PatternTree) ExtensionUnitShapes(s Subtree) []UnitShape {
	units := p.extensionUnits(s)
	out := make([]UnitShape, len(units))
	for i := range units {
		u := &units[i]
		k := u.key()
		out[i] = UnitShape{First: k.first, Last: k.last, Atoms: u.atoms, Bound: u.bound, Proj: u.proj}
	}
	return out
}
