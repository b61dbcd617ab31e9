// Package subsume implements the static-analysis problems of Section 4 of
// Barceló & Pichler (PODS 2015): subsumption p1 ⊑ p2, subsumption-
// equivalence ≡s, and equivalence under the maximal-mappings semantics ≡max
// (equal to ≡s by Proposition 5).
//
// The decision procedure is Theorem 11's coNP argument made literal. For a
// rooted subtree T of p1, let D_T be its frozen canonical database (every
// variable v becomes a fresh constant •v) and h_T the frozen free variables
// of T. Then p1 ⊑ p2 iff, for every T, some answer of p2 over D_T extends
// h_T (docs/THEORY.md §4). The outer loop is the guess of T; the inner
// check is exactly PARTIAL-EVAL(p2, D_T, h_T), which is where the asymmetry
// of Theorem 11 comes from: when p2 is globally tractable the inner check
// runs in polynomial time and overall membership drops from Π₂ᴾ to coNP.
// The same loop decides a tree against a union of trees (Theorem 16), with
// ⋃-PARTIAL-EVAL as the inner check.
//
// Every evaluation inside the search is a Solve call under the caller's
// context, so a deadline or cancellation stops the search with an error.
package subsume

import (
	"context"
	"errors"
	"strings"

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
	// Stats receives work counters (canonical databases built, inner
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
	return Refute(ctx, p1, tree{p2}, opts)
}

// Target is the right-hand side of a subsumption test: a pattern tree, or a
// union of pattern trees (Theorem 16). Trees lists the trees whose
// constants the frozen constants must avoid.
type Target interface {
	Solve(ctx context.Context, d *db.Database, opts core.SolveOptions) (core.Result, error)
	Trees() []*core.PatternTree
}

// tree is a single pattern tree as a Target.
type tree struct{ *core.PatternTree }

func (t tree) Trees() []*core.PatternTree { return []*core.PatternTree{t.PatternTree} }

// Refute is CounterExample against any Target. For each rooted subtree T of
// p1 it builds the frozen canonical database D_T and runs one inner check:
// does some answer of p2 over D_T extend h_T, the frozen free variables of
// T? p1 ⊑ p2 holds iff every check succeeds (docs/THEORY.md §4). On the
// first failure it returns D_T and the first answer of p1 over D_T that
// extends h_T.
func Refute(ctx context.Context, p1 *core.PatternTree, p2 Target, opts Options) (d *db.Database, h cq.Mapping, found bool, err error) {
	eng := opts.engine()
	st := opts.stats()
	prefix := freshPrefix(append([]*core.PatternTree{p1}, p2.Trees()...))
	p1.EnumerateSubtrees(func(s core.Subtree) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		st.Inc(obs.CtrQuotientDBs)
		st.Inc(obs.CtrInnerChecks)
		dT, hT := canonical(p1, s, prefix)
		var subsumed bool
		if subsumed, err = subsumedIn(ctx, p2, dT, hT, opts.InnerEnumerate, eng, st); err != nil || subsumed {
			return err == nil
		}
		d = dT
		var ok bool
		if h, ok, err = extension(ctx, tree{p1}, dT, hT, st); err == nil && !ok {
			err = errNoExtension
		}
		found = err == nil
		return false
	})
	if err != nil {
		return nil, nil, false, tripOf(err)
	}
	return d, h, found, nil
}

// freshPrefix returns one '•' more than the longest run of '•' that begins
// a constant of the trees, so prefix+v is a constant no tree mentions for
// every variable v.
func freshPrefix(trees []*core.PatternTree) string {
	run := ""
	for _, p := range trees {
		for _, a := range p.AllAtoms() {
			for _, t := range a.Args {
				if t.IsVar() {
					continue
				}
				c := t.Value()
				if lead := c[:len(c)-len(strings.TrimLeft(c, "•"))]; len(lead) > len(run) {
					run = lead
				}
			}
		}
	}
	return run + "•"
}

// canonical returns the frozen canonical database D_T of subtree s, in
// which every variable v is the constant prefix+v and constants stay as
// they are, and h_T, the frozen free variables of s.
func canonical(p *core.PatternTree, s core.Subtree, prefix string) (*db.Database, cq.Mapping) {
	freeze := make(cq.Mapping)
	for _, v := range p.SubtreeVars(s) {
		freeze[v] = prefix + v
	}
	d := db.New()
	for _, a := range p.SubtreeAtoms(s) {
		ground := freeze.ApplyAtom(a)
		vals := make([]string, len(ground.Args))
		for j, t := range ground.Args {
			vals[j] = t.Value()
		}
		d.Insert(a.Rel, vals...)
	}
	hT := make(cq.Mapping)
	for _, x := range p.SubtreeFreeVars(s) {
		hT[x] = freeze[x]
	}
	return d, hT
}

// errNoExtension reports a canonical database on which p1 has no answer
// extending h_T. The identity on T extends to a maximal homomorphism, so
// this is an evaluator fault, never a verdict.
var errNoExtension = errors.New("subsume: no answer of p1 over its canonical database extends the frozen free variables")

// extension returns the first answer of p over d that extends h; ok is
// false when there is none.
func extension(ctx context.Context, p Target, d *db.Database, h cq.Mapping, st *obs.Stats) (g cq.Mapping, ok bool, err error) {
	res, err := p.Solve(ctx, d, core.SolveOptions{Mode: core.ModeEnumerate, Stats: st})
	if err != nil {
		return nil, false, err
	}
	for _, g := range res.Answers {
		if h.SubsumedBy(g) {
			return g, true, nil
		}
	}
	return nil, false, nil
}

// subsumedIn reports whether some answer of p over d subsumes h: by
// PARTIAL-EVAL (Theorem 11's inner check) or, with enumerate, by scanning
// p(D) — the generic Π₂ᴾ ablation.
func subsumedIn(ctx context.Context, p Target, d *db.Database, h cq.Mapping, enumerate bool, eng cqeval.Engine, st *obs.Stats) (bool, error) {
	if !enumerate {
		res, err := p.Solve(ctx, d, core.SolveOptions{Mode: core.ModePartial, Mapping: h, Engine: eng, Stats: st})
		return res.Holds, err
	}
	_, ok, err := extension(ctx, p, d, h, st)
	return ok, err
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
