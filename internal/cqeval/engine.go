package cqeval

import (
	"fmt"
	"sort"

	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/par"
)

// Engine evaluates sets of atoms (CQ bodies) over a database under a partial
// pre-binding of variables.
type Engine interface {
	// Name identifies the engine in benchmark output.
	Name() string
	// Satisfiable reports whether some homomorphism from atoms to d
	// consistent with fixed exists.
	Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool
	// Project returns the distinct restrictions to proj of all such
	// homomorphisms. Bindings from fixed for projection variables are
	// included in the output rows; projection variables occurring neither
	// in the atoms nor in fixed are omitted from the rows.
	Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping
	// Explain returns the plan the engine would use for this query as a
	// structured value, without recording work counters: the strategy,
	// fallbacks taken, structural width, and materialized bag sizes.
	Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan
}

// statsCarrier is the private interface every engine in this package
// implements; WithStats and StatsOf dispatch through it.
type statsCarrier interface {
	withStats(st *obs.Stats) Engine
	stats() *obs.Stats
}

// WithStats returns a copy of eng that records its work on st. A nil st
// returns an engine with observability disabled (the default). Engines not
// constructed by this package are returned unchanged.
func WithStats(eng Engine, st *obs.Stats) Engine {
	if c, ok := eng.(statsCarrier); ok {
		return c.withStats(st)
	}
	return eng
}

// StatsOf returns the stats sink attached to eng by WithStats, or nil.
// Layers above cqeval (internal/core and friends) use it to record their
// own counters on the same sink the engine was given.
func StatsOf(eng Engine) *obs.Stats {
	if c, ok := eng.(statsCarrier); ok {
		return c.stats()
	}
	return nil
}

// poolCarrier is the private interface the plan-based engines implement;
// WithPool dispatches through it.
type poolCarrier interface {
	withPool(pl *par.Pool) Engine
}

// WithPool returns a copy of eng whose count-exact plan phases — bag
// materialization, the top-down reduction, and the projecting join — fan
// out over pl. Every parallelized phase produces byte-identical results and
// identical non-par.* counter totals at any worker count; the bottom-up
// semijoin pass stays sequential because its early exit makes its work set
// order-dependent. A nil pl restores sequential evaluation; so does a plan
// of one bag, which is all the naive engine builds. Engines not
// constructed by this package are returned unchanged.
func WithPool(eng Engine, pl *par.Pool) Engine {
	if c, ok := eng.(poolCarrier); ok {
		return c.withPool(pl)
	}
	return eng
}

// meterCarrier is the private interface every engine in this package
// implements; WithMeter and MeterOf dispatch through it.
type meterCarrier interface {
	withMeter(gm *guard.Meter) Engine
	meter() *guard.Meter
}

// WithMeter returns a copy of eng that charges its materialized rows —
// bag relations, join rows, domain products, enumerated homomorphisms —
// against the guard meter and checkpoints its semijoin and join loops for
// cancellation. A nil gm restores unmetered evaluation (the default).
// Engines not constructed by this package are returned unchanged.
func WithMeter(eng Engine, gm *guard.Meter) Engine {
	if c, ok := eng.(meterCarrier); ok {
		return c.withMeter(gm)
	}
	return eng
}

// MeterOf returns the guard meter attached to eng by WithMeter, or nil.
// Layers above cqeval use it to checkpoint their own loops against the
// same budget the engine charges.
func MeterOf(eng Engine) *guard.Meter {
	if c, ok := eng.(meterCarrier); ok {
		return c.meter()
	}
	return nil
}

// Naive returns the baseline backtracking engine (general CQs, exponential
// in query size in the worst case): its plan is one bag holding every
// atom a binding leaves open, materialized by the backtracking search.
func Naive() Engine { return planEngine{name: "naive", first: backtracking} }

// Yannakakis returns the join-tree semijoin engine for acyclic CQs
// (Theorem 3 substrate); on non-acyclic inputs it transparently falls back
// to a tree decomposition. The returned engine caches the structural part
// of its plans (join trees, decompositions) across calls, keyed on the
// variable shape of the instantiated atoms.
func Yannakakis() Engine {
	return planEngine{name: "yannakakis", first: joinTree, cache: newPlanCache()}
}

// Decomposition returns the tree-decomposition-guided engine: bags of a
// min-fill decomposition become materialized relations processed by
// Yannakakis over the bag tree (Theorem 2 substrate). It handles arbitrary
// CQs; running time is |D|^(w+1) for decomposition width w. Structural
// plans are cached across calls.
func Decomposition() Engine {
	return planEngine{name: "decomposition", first: treeDecomposition, cache: newPlanCache()}
}

// Auto returns the selecting engine: Yannakakis when the instantiated query
// is acyclic, a tree decomposition otherwise. Structural plans are cached
// across calls.
func Auto() Engine { return planEngine{name: "auto", first: joinTree, cache: newPlanCache()} }

// Hypertree returns the GHD-guided engine: a generalized hypertree
// decomposition of width ≤ maxWidth is searched (growing from width 1);
// each bag's relation is the join of its covering atoms projected to the
// bag, and the bag tree is processed by Yannakakis. For acyclic queries
// this coincides with the Yannakakis engine; for cyclic queries of small
// hypertree width — such as Example 5's θ_n family, whose treewidth is
// unbounded — it evaluates in |D|^O(maxWidth) where variable-based
// decompositions cannot help. Queries whose instantiated hypergraph
// exceeds maxWidth fall back to a tree decomposition. Structural
// decompositions are cached across calls.
func Hypertree(maxWidth int) Engine {
	if maxWidth < 1 {
		maxWidth = 1
	}
	return planEngine{name: "hypertree", first: ghd, maxWidth: maxWidth, cache: newPlanCache()}
}

// ByName resolves the engine vocabulary shared by the wdpteval -engine flag
// and the wdptd request field; "hypertree" bounds the GHD width at 3.
func ByName(name string) (Engine, error) {
	switch name {
	case "auto":
		return Auto(), nil
	case "naive":
		return Naive(), nil
	case "yannakakis":
		return Yannakakis(), nil
	case "decomposition":
		return Decomposition(), nil
	case "hypertree":
		return Hypertree(3), nil
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

// strategy is a structural plan shape: how the instantiated atoms are
// arranged into a tree of bag relations for the semijoin executor.
type strategy uint8

const (
	joinTree          strategy = iota // GYO join tree, one bag per atom; acyclic queries only
	treeDecomposition                 // min-fill tree decomposition; applies to every query
	ghd                               // generalized hypertree decomposition of bounded width
	backtracking                      // one bag of every atom, searched whole; applies to every query
)

// String is the strategy's name in EXPLAIN output.
func (s strategy) String() string {
	return [...]string{joinTree: "join-tree", treeDecomposition: "tree-decomposition", ghd: "ghd", backtracking: "backtracking"}[s]
}

// planEngine is the one engine behind Naive, Yannakakis, Decomposition,
// Auto and Hypertree. It plans with its first strategy and, when that
// strategy does not apply to the instantiated query (cyclic for a join
// tree, wider than maxWidth for a GHD), falls back to a tree decomposition,
// which always applies. The backtracking strategy needs no structural
// shape, so it neither caches nor falls back.
type planEngine struct {
	name     string
	first    strategy
	maxWidth int // GHD width bound; unused by the other strategies
	st       *obs.Stats
	cache    *planCache
	pl       *par.Pool
	gm       *guard.Meter
}

func (e planEngine) Name() string { return e.name }

func (e planEngine) withStats(st *obs.Stats) Engine { e.st = st; return e }
func (e planEngine) stats() *obs.Stats              { return e.st }

func (e planEngine) withPool(pl *par.Pool) Engine { e.pl = pl; return e }

func (e planEngine) withMeter(gm *guard.Meter) Engine { e.gm = gm; return e }
func (e planEngine) meter() *guard.Meter              { return e.gm }

func (e planEngine) Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	e.st.Inc(obs.CtrSatisfiableCalls)
	q, ids, _ := e.oneShot(atoms, d, fixed, nil)
	if q == nil || len(q.atoms) == 0 {
		return q != nil // a ground atom failed, or all were ground and held
	}
	if e.first == backtracking { // search the bag up to its first homomorphism
		e.gm.Checkpoint()
		b, k := &q.shaped().bags[0], searchers.Get().(*cq.Searcher)
		defer searchers.Put(k)
		return k.SatisfiableAt(b.c, d, ids, b.fixed, e.st, e.gm)
	}
	p := q.build(ids)
	defer q.release(p)
	return p.satisfiable()
}

func (e planEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	e.st.Inc(obs.CtrProjectCalls)
	q, ids, extra := e.oneShot(atoms, d, fixed, proj)
	if q == nil {
		return nil
	}
	return q.project(ids, extra)
}

// Explain plans on a copy of e without sink, pool or meter, so it records
// nothing; the shapes it builds still land in the plan cache.
func (e planEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	e.st, e.pl, e.gm = nil, nil, nil
	out := obs.Plan{Engine: e.name, Strategy: e.first.String()}
	if e.first == joinTree {
		out.Width = 1 // a join tree is width 1 by definition, even an empty one
	}
	q, ids, _ := e.oneShot(atoms, d, fixed, nil)
	switch {
	case q == nil: // a ground atom failed: nothing to shape
		return out
	case e.first == backtracking: // the search has no bag tree to show
		out.Atoms = len(q.atoms)
		return out
	case len(q.atoms) == 0: // all atoms were ground and held: one empty-row bag
		out.Bags = []obs.PlanBag{{Rows: 1, Parent: -1}}
		return out
	}
	p := q.build(ids)
	out.Strategy, out.Width, out.Atoms, out.Fallback = q.sh.used.String(), q.sh.width, len(q.atoms), q.sh.used != e.first
	for i, r := range p.rels {
		out.Bags = append(out.Bags, obs.PlanBag{Vars: append([]string(nil), r.vars...), Atoms: q.sh.bags[i].nAtoms, Rows: r.n, Parent: q.sh.parent[i]})
	}
	q.release(p)
	return out
}

// plan is one run of a prepared query: its bag relations over the shape's
// tree, ready for semijoin processing.
type plan struct {
	rels   []varRel
	sh     *preparedShape
	failed bool // some bag relation is empty
	st     *obs.Stats
	pl     *par.Pool
	gm     *guard.Meter
}

// shape returns the structural plan of q's atoms under strategy s, from the
// plan cache when their variable shape has been planned before. ok=false
// on the returned shape means s does not apply.
func (e planEngine) shape(s strategy, q *Prepared) *cachedShape {
	st := e.st
	// maxWidth needs no place in the key: the cache belongs to one engine.
	prefix := [...]string{joinTree: "jt", treeDecomposition: "td", ghd: "ghd"}[s]
	return e.cache.do(shapeKey(prefix, q.atoms, q.bound), st, func() *cachedShape {
		masked := q.masked()
		hg := cq.AtomsHypergraph(masked)
		sh := &cachedShape{}
		switch s {
		case joinTree:
			if acyclic, jt := hg.IsAcyclic(); acyclic {
				st.Inc(obs.CtrJoinTreesBuilt)
				sh = &cachedShape{ok: true, parent: jt.Parent, order: jt.Order, width: 1}
				for _, a := range masked {
					sh.bags = append(sh.bags, a.Vars())
				}
			}
		case ghd:
			for k := 1; k <= e.maxWidth && !sh.ok; k++ {
				if g, ok := hg.GeneralizedHypertreeDecomposition(k); ok {
					st.Inc(obs.CtrGHDsBuilt)
					sh = &cachedShape{ok: true, bags: g.Bags, parent: g.Parent, order: bottomUpOrder(g.Parent), covers: g.Covers, width: k}
				}
			}
		default:
			dec := hg.TreeDecomposition()
			st.Inc(obs.CtrDecompositionsBuilt)
			sh = &cachedShape{ok: true, bags: dec.Bags, parent: dec.Parent, order: bottomUpOrder(dec.Parent), width: dec.Width()}
		}
		for _, bag := range sh.bags {
			sort.Strings(bag)
		}
		return sh
	})
}

// assignAtoms places each atom at the first bag that covers its variables
// and returns the atom indexes per bag.
func assignAtoms(bags [][]string, inst []cq.Atom) [][]int {
	bagSets := make([]map[string]bool, len(bags))
	for i, b := range bags {
		bagSets[i] = make(map[string]bool, len(b))
		for _, v := range b {
			bagSets[i][v] = true
		}
	}
	assigned := make([][]int, len(bags))
place:
	for k, a := range inst {
		for i := range bagSets {
			if coversAtom(bagSets[i], a) {
				assigned[i] = append(assigned[i], k)
				continue place
			}
		}
		// Cannot happen for a valid decomposition.
		// unreachable invariant violation: every atom is covered by construction
		panic("cqeval: atom not covered by any bag")
	}
	return assigned
}

func coversAtom(bag map[string]bool, a cq.Atom) bool {
	for _, v := range a.Vars() {
		if !bag[v] {
			return false
		}
	}
	return true
}

// candidateDomains computes, for each variable, the intersection over all
// its occurrences of the term IDs in the corresponding relation column — a
// sound per-variable filter, computed entirely on dictionary-encoded
// columns.
func candidateDomains(atoms []cq.Atom, d *db.Database) map[string][]uint32 {
	sets := make(map[string]map[uint32]bool)
	for _, a := range atoms {
		rel := d.Relation(a.Rel)
		for pos, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			col := make(map[uint32]bool)
			if rel != nil && rel.Arity() == len(a.Args) {
				for i, n := 0, rel.Len(); i < n; i++ {
					col[rel.At(i, pos)] = true
				}
			}
			if prev, ok := sets[t.Value()]; ok {
				for v := range prev {
					if !col[v] {
						delete(prev, v)
					}
				}
			} else {
				sets[t.Value()] = col
			}
		}
	}
	out := make(map[string][]uint32, len(sets))
	for v, set := range sets {
		vals := make([]uint32, 0, len(set))
		for c := range set {
			vals = append(vals, c)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		out[v] = vals
	}
	return out
}

// extendOverDomains extends each base row (flat, width w) with all
// combinations of candidate IDs for the uncovered variable positions,
// charging each product row against the guard meter (the decomposition
// engine's cross-product blow-up is exactly the path a tuple budget must
// bound).
func extendOverDomains(base []uint32, w int, uncovered []int, vals [][]uint32, gm *guard.Meter) []uint32 {
	rows := base
	for k, pos := range uncovered {
		vs := vals[k]
		if len(vs) == 0 {
			return nil
		}
		n := len(rows) / w
		next := make([]uint32, 0, len(rows)*len(vs))
		for i := 0; i < n; i++ {
			row := rows[i*w : (i+1)*w]
			for _, c := range vs {
				gm.ChargeTuples(1)
				next = append(next, row...)
				next[len(next)-w+pos] = c
			}
		}
		rows = next
	}
	return rows
}

func bottomUpOrder(parent []int) []int {
	n := len(parent)
	children := make([][]int, n)
	root := -1
	for i, p := range parent {
		if p == -1 {
			root = i
		} else {
			children[p] = append(children[p], i)
		}
	}
	var order []int
	var walk func(int)
	walk = func(v int) {
		for _, c := range children[v] {
			walk(c)
		}
		order = append(order, v)
	}
	if root >= 0 {
		walk(root)
	}
	return order
}

// satisfiable runs the bottom-up semijoin pass and reports whether the root
// relation stays nonempty. Always sequential: the early exit on an emptied
// parent makes the pass's work set order-dependent, so parallelizing it
// would change counter totals run to run.
func (p *plan) satisfiable() bool {
	if p.failed {
		return false
	}
	for _, i := range p.sh.order {
		if pa := p.sh.parent[i]; pa != -1 {
			p.gm.Checkpoint()
			guard.Fault(guard.SiteCQEvalSemijoin)
			p.rels[pa].semijoin(&p.rels[i], p.sh.edges[i][0], p.sh.edges[i][1], p.st)
			p.st.Inc(obs.CtrSemijoinPasses)
			if p.rels[pa].n == 0 {
				return false
			}
		}
	}
	root := p.sh.order[len(p.sh.order)-1]
	return p.rels[root].n > 0
}

// topDownReduce semijoins every node with its (already reduced) parent. At
// Parallelism 1 children reduce in reverse bottom-up order; in parallel
// they reduce in waves by depth: a node's parent is final after the
// previous wave and each task writes only its own relation, so the reduced
// relations — and the semijoin count, one per tree edge — are identical to
// the sequential pass.
func (p *plan) topDownReduce() {
	if !p.pl.Parallel() {
		for j := len(p.sh.order) - 1; j >= 0; j-- {
			i := p.sh.order[j]
			if pa := p.sh.parent[i]; pa != -1 {
				p.gm.Checkpoint()
				guard.Fault(guard.SiteCQEvalSemijoin)
				p.rels[i].semijoin(&p.rels[pa], p.sh.edges[i][1], p.sh.edges[i][0], p.st)
				p.st.Inc(obs.CtrSemijoinPasses)
			}
		}
		return
	}
	depth := make([]int, len(p.rels))
	maxDepth := 0
	for j := len(p.sh.order) - 1; j >= 0; j-- { // reverse bottom-up = parents first
		i := p.sh.order[j]
		if pa := p.sh.parent[i]; pa != -1 {
			depth[i] = depth[pa] + 1
			if depth[i] > maxDepth {
				maxDepth = depth[i]
			}
		}
	}
	waves := make([][]int, maxDepth+1)
	for j := len(p.sh.order) - 1; j >= 0; j-- {
		i := p.sh.order[j]
		if p.sh.parent[i] != -1 {
			waves[depth[i]] = append(waves[depth[i]], i)
		}
	}
	for _, wave := range waves {
		wave := wave
		p.pl.Run(len(wave), func(k int) {
			i := wave[k]
			p.gm.Checkpoint()
			guard.Fault(guard.SiteCQEvalSemijoin)
			p.rels[i].semijoin(&p.rels[p.sh.parent[i]], p.sh.edges[i][1], p.sh.edges[i][0], p.st)
			p.st.Inc(obs.CtrSemijoinPasses)
		})
	}
}
