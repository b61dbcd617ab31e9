// Package approx implements the semantic-optimization machinery of
// Section 5 of Barceló & Pichler (PODS 2015): the well-behaved classes
// WB(k) = g-C(k) with C(k) ∈ {TW(k), HW'(k)}, membership in M(WB(k))
// (subsumption-equivalence to a well-behaved tree, Theorem 13), and
// WB(k)-approximations (Definition 4, Theorem 14).
//
// The paper's decision procedures guess WDPTs of up to exponential size
// (Lemma 1); exhaustive search over that space is infeasible, so this
// package searches the candidate space generated from p by
//
//   - quotients: collapsing existential variables onto each other or onto
//     free variables (pointwise-fixed), exactly as in the complete CQ-level
//     construction of [Barceló, Libkin, Romero 2014], and
//   - prunes: restricting the tree to a rooted subtree,
//
// verifying candidates by the exact subsumption test of internal/subsume,
// and keeping the ⊑-maximal ones, the first of each class, with
// cq.Frontier. That filter compares each candidate with the current
// maximal set only: at most two subsumption tests per candidate and
// frontier member, rather than up to two per pair of candidates.
//
// For trees whose obstruction to WB(k) lies in oversized joins between
// existential variables — which includes every single-node WDPT, where the
// space is provably complete — the maximal surviving candidates are true
// WB(k)-approximations; in general they are certified lower bounds
// (candidate ⊑ p and candidate ∈ WB(k)). The Figure 2 family shows that
// true approximations can require exponentially many atoms, so any complete
// procedure must leave the quotient space; see EXPERIMENTS.md.
package approx

import (
	"context"
	"fmt"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/obs"
	"wdpt/internal/par"
	"wdpt/internal/subsume"
)

// maxCandidates caps the search: ApproximateAll keeps at most this many
// verified class members, and MemberWB and IsApproximation test at most
// this many candidates.
const maxCandidates = 10000

// Options configures the candidate search.
type Options struct {
	// Prune enables subtree-pruning candidates in addition to quotients.
	Prune bool
	// Subsume configures the underlying subsumption tests.
	Subsume subsume.Options
	// Parallelism bounds worker goroutines for candidate verification in
	// ApproximateAll, MemberWB and IsApproximation; values ≤ 1 run the exact
	// sequential search. Results are byte-identical at every level
	// (candidates verify in enumeration order); the approx.* work counters
	// can exceed the sequential totals, because a batch in flight when the
	// search would have stopped still completes.
	Parallelism int
}

// stats resolves the observability sink from the subsumption options: the
// explicit sink if set, else the one the engine carries.
func (o Options) stats() *obs.Stats {
	if o.Subsume.Stats != nil {
		return o.Subsume.Stats
	}
	return cqeval.StatsOf(o.Subsume.Engine)
}

// WB returns the well-behaved class WB(k) with C(k) = TW(k) as a CQ class
// to be used with core.GloballyIn; treewidth is subquery-closed, so global
// tractability is a single check (Section 5).
func WB(k int) cq.Class { return cq.TW(k) }

// WBPrime returns WB(k) with C(k) = HW'(k) (β-hypertreewidth).
func WBPrime(k int) cq.Class { return cq.HWPrime(k) }

// InWB reports whether p itself belongs to WB(k) = g-C(k).
func InWB(p *core.PatternTree, c cq.Class) bool {
	return p.GloballyIn(c)
}

// Candidates enumerates the candidate trees generated from p: quotient
// images (and, with opts.Prune, quotients of rooted subtrees) that are
// well-designed. Unlike the CQ case, a quotient of a pattern tree is NOT
// automatically subsumed by p — merging an existential variable onto a free
// variable can pull the free variable up the tree and strengthen answers —
// so consumers must verify candidate ⊑ p (ApproximateAll and MemberWB do).
// visit returning false stops the enumeration.
func Candidates(p *core.PatternTree, opts Options, visit func(*core.PatternTree) bool) {
	if p.HasConstants() {
		// documented precondition: callers gate on HasConstants (Section 5.2)
		panic("approx: approximations are only defined for constant-free pattern trees (Section 5.2)")
	}
	st := opts.stats()
	stopped := false
	emit := func(t *core.PatternTree) bool {
		if stopped {
			return false
		}
		st.Inc(obs.CtrApproxCandidates)
		if !visit(t) {
			stopped = true
		}
		return !stopped
	}
	subtrees := []core.Subtree{p.FullSubtree()}
	if opts.Prune {
		subtrees = subtrees[:0]
		p.EnumerateSubtrees(func(s core.Subtree) bool {
			subtrees = append(subtrees, s)
			return true
		})
	}
	for _, s := range subtrees {
		if stopped {
			return
		}
		quotientTrees(p, s, emit)
	}
}

// quotientTrees enumerates the well-designed quotient images of the
// restriction of p to subtree s.
func quotientTrees(p *core.PatternTree, s core.Subtree, emit func(*core.PatternTree) bool) {
	atoms := p.SubtreeAtoms(s)
	vars := cq.AtomsVars(atoms)
	freeSet := p.FreeSet()
	var free, evars []string
	for _, v := range vars {
		if freeSet[v] {
			free = append(free, v)
		} else {
			evars = append(evars, v)
		}
	}
	theta := make(cq.Mapping, len(vars))
	for _, x := range free {
		theta[x] = x
	}
	reps := append([]string(nil), free...)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(evars) {
			t, err := buildQuotientTree(p, s, theta)
			if err != nil {
				return true // not well-designed after merging; skip
			}
			return emit(t)
		}
		v := evars[i]
		for _, r := range reps {
			theta[v] = r
			if !rec(i + 1) {
				return false
			}
		}
		theta[v] = v
		reps = append(reps, v)
		ok := rec(i + 1)
		reps = reps[:len(reps)-1]
		delete(theta, v)
		return ok
	}
	rec(0)
}

// buildQuotientTree applies the variable renaming θ to the nodes of p
// restricted to subtree s, preserving the tree shape.
func buildQuotientTree(p *core.PatternTree, s core.Subtree, theta cq.Mapping) (*core.PatternTree, error) {
	var spec func(n *core.Node) core.NodeSpec
	spec = func(n *core.Node) core.NodeSpec {
		out := core.NodeSpec{}
		for _, a := range n.Atoms() {
			args := make([]cq.Term, len(a.Args))
			for i, t := range a.Args {
				if t.IsVar() {
					args[i] = cq.V(theta[t.Value()])
				} else {
					args[i] = t
				}
			}
			out.Atoms = append(out.Atoms, cq.NewAtom(a.Rel, args...))
		}
		for _, c := range n.Children() {
			if s.Has(c.ID()) {
				out.Children = append(out.Children, spec(c))
			}
		}
		return out
	}
	rootSpec := spec(p.Root())
	free := p.SubtreeFreeVars(s)
	return core.New(rootSpec, free)
}

// ApproximateAll returns the maximal (under ⊑) candidates from the search
// space that belong to WB(k) (given as the CQ class c). The result trees
// are pairwise non-equivalent, each satisfies cand ∈ WB(k) and cand ⊑ p.
// If p ∈ WB(k), p itself is returned as the single approximation. The first
// error — ctx done, or an inner Solve call tripped — stops the search.
func ApproximateAll(ctx context.Context, p *core.PatternTree, c cq.Class, opts Options) ([]*core.PatternTree, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if InWB(p, c) {
		return []*core.PatternTree{p}, nil
	}
	st := opts.stats()
	var members []*core.PatternTree
	err := search(ctx, p, opts, func(t *core.PatternTree) (bool, error) {
		if !InWB(t, c) {
			return false, nil
		}
		st.Inc(obs.CtrApproxVerified)
		return subsume.Subsumes(ctx, t, p, opts.Subsume)
	}, func(t *core.PatternTree, ok bool) bool {
		if ok {
			members = append(members, t)
		}
		return len(members) < maxCandidates
	})
	if err != nil {
		return nil, err
	}
	return cq.Frontier(members, func(a, b *core.PatternTree) (bool, error) {
		return subsume.Subsumes(ctx, a, b, opts.Subsume)
	})
}

// search runs check over the candidates of p in enumeration order and hands
// each verdict to keep, which returns false to stop; ctx being done, or the
// first error, stops the search too. With a parallel pool the checks run in enumeration-order
// batches, so keep sees exactly the sequential sequence and the results are
// byte-identical; a batch in flight when keep stops still completes. check
// must be safe for concurrent use.
func search(ctx context.Context, p *core.PatternTree, opts Options, check func(*core.PatternTree) (bool, error), keep func(*core.PatternTree, bool) bool) error {
	pool := par.New(opts.Parallelism, opts.stats())
	if !pool.Parallel() {
		var err error
		Candidates(p, opts, func(t *core.PatternTree) bool {
			var ok bool
			if err = ctx.Err(); err == nil {
				ok, err = check(t)
			}
			return err == nil && keep(t, ok)
		})
		return err
	}
	if p.HasConstants() {
		// documented precondition: callers gate on HasConstants (Section 5.2)
		panic("approx: approximations are only defined for constant-free pattern trees (Section 5.2)")
	}
	stream, quit := candidateStream(p, opts)
	defer close(quit)
	type verdict struct {
		ok  bool
		err error
	}
	chunk := 4 * pool.Workers()
	batch := make([]*core.PatternTree, 0, chunk)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch = batch[:0]
		for t := range stream {
			batch = append(batch, t)
			if len(batch) == chunk {
				break
			}
		}
		verdicts := par.Map(pool, len(batch), func(i int) verdict {
			ok, err := check(batch[i])
			return verdict{ok, err}
		})
		for i, v := range verdicts {
			if v.err != nil {
				return v.err
			}
			if !keep(batch[i], v.ok) {
				return nil
			}
		}
		if len(batch) < chunk {
			return nil
		}
	}
}

// candidateStream runs the Candidates enumeration on its own goroutine,
// delivering candidates over a channel. Closing quit stops the enumeration
// promptly (the generator's pending send aborts), after which the output
// channel closes — no goroutine outlives the consumer.
func candidateStream(p *core.PatternTree, opts Options) (<-chan *core.PatternTree, chan struct{}) {
	out := make(chan *core.PatternTree)
	quit := make(chan struct{})
	//lint:ignore R11 joined by protocol across functions: search always drains out or closes quit, either of which unblocks the pending send so the deferred close(out) runs — the goroutine cannot outlive its consumer
	go func() {
		defer close(out)
		Candidates(p, opts, func(t *core.PatternTree) bool {
			select {
			case out <- t:
				return true
			case <-quit:
				return false
			}
		})
	}()
	return out, quit
}

// Approximate returns one WB(k)-approximation candidate for p (the first
// maximal one), or an error if the search space contains no member of the
// class.
func Approximate(ctx context.Context, p *core.PatternTree, c cq.Class, opts Options) (*core.PatternTree, error) {
	all, err := ApproximateAll(ctx, p, c, opts)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("approx: no %s candidate found for the tree (search space exhausted)", c.Name())
	}
	return all[0], nil
}

// MemberWB decides membership of p in M(WB(k)) over the candidate space:
// it reports a witness p' ∈ WB(k) with p ≡s p' if one exists among the
// candidates. Since every candidate is subsumed by p, it suffices to check
// p ⊑ candidate (Theorem 13's structure: the approximation is equivalent to
// p iff p is in M(WB(k)), restricted to the searched space). The first
// error — ctx done, or an inner Solve call tripped — stops the search.
func MemberWB(ctx context.Context, p *core.PatternTree, c cq.Class, opts Options) (*core.PatternTree, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if InWB(p, c) {
		return p, true, nil
	}
	st := opts.stats()
	var witness *core.PatternTree
	count := 0
	err := search(ctx, p, opts, func(t *core.PatternTree) (bool, error) {
		if !InWB(t, c) {
			return false, nil
		}
		st.Inc(obs.CtrApproxVerified)
		if ok, err := subsume.Subsumes(ctx, p, t, opts.Subsume); !ok || err != nil {
			return false, err
		}
		return subsume.Subsumes(ctx, t, p, opts.Subsume)
	}, func(t *core.PatternTree, ok bool) bool {
		count++
		if ok {
			witness = t
		}
		return !ok && count < maxCandidates
	})
	if err != nil {
		return nil, false, err
	}
	return witness, witness != nil, nil
}

// IsApproximation checks whether cand is a WB(k)-approximation of p
// relative to the candidate space: cand ∈ WB(k), cand ⊑ p, and no candidate
// strictly between them. (Proposition 8 studies the unrestricted version of
// this problem, which is Π₂ᴾ-hard already.) The first error stops the
// search.
func IsApproximation(ctx context.Context, cand, p *core.PatternTree, c cq.Class, opts Options) (bool, error) {
	if err := ctx.Err(); err != nil || !InWB(cand, c) {
		return false, err
	}
	if ok, err := subsume.Subsumes(ctx, cand, p, opts.Subsume); !ok || err != nil {
		return false, err
	}
	better := false
	count := 0
	err := search(ctx, p, opts, func(t *core.PatternTree) (bool, error) {
		return strictlyBetween(ctx, cand, t, p, c, opts.Subsume)
	}, func(_ *core.PatternTree, ok bool) bool {
		count++
		better = ok
		return !ok && count < maxCandidates
	})
	return !better && err == nil, err
}

// strictlyBetween reports whether the candidate t is a class member with
// cand ⊏ t ⊑ p.
func strictlyBetween(ctx context.Context, cand, t, p *core.PatternTree, c cq.Class, sopts subsume.Options) (bool, error) {
	if !InWB(t, c) {
		return false, nil
	}
	if ok, err := subsume.Subsumes(ctx, t, p, sopts); !ok || err != nil {
		return false, err
	}
	if ok, err := subsume.Subsumes(ctx, cand, t, sopts); !ok || err != nil {
		return false, err
	}
	back, err := subsume.Subsumes(ctx, t, cand, sopts)
	return !back && err == nil, err
}
