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
// order-dependent. A nil pl restores sequential evaluation. Engines not
// constructed by this package, and engines with nothing to parallelize
// (the naive engine), are returned unchanged.
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
// in query size in the worst case).
func Naive() Engine { return naiveEngine{} }

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

type naiveEngine struct {
	st *obs.Stats
	gm *guard.Meter
}

func (naiveEngine) Name() string { return "naive" }

func (e naiveEngine) withStats(st *obs.Stats) Engine { return naiveEngine{st: st, gm: e.gm} }
func (e naiveEngine) stats() *obs.Stats              { return e.st }

func (e naiveEngine) withMeter(gm *guard.Meter) Engine { return naiveEngine{st: e.st, gm: gm} }
func (e naiveEngine) meter() *guard.Meter              { return e.gm }

func (e naiveEngine) Satisfiable(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) bool {
	e.st.Inc(obs.CtrSatisfiableCalls)
	e.gm.Checkpoint()
	return cq.SatisfiableObs(atoms, d, fixed, e.st, e.gm)
}

func (e naiveEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	e.st.Inc(obs.CtrProjectCalls)
	out := cq.NewMappingSet()
	cq.HomomorphismsObs(atoms, d, fixed, e.st, e.gm, func(h cq.Mapping) bool {
		e.gm.ChargeTuples(1)
		row := h.Restrict(proj)
		for _, v := range proj {
			if c, ok := fixed[v]; ok {
				row[v] = c
			}
		}
		out.Add(row)
		return true
	})
	return out.All()
}

func (e naiveEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	inst, _ := instantiate(atoms, d, fixed)
	return obs.Plan{Engine: e.Name(), Strategy: "backtracking", Atoms: len(inst)}
}

// strategy is a structural plan shape: how the instantiated atoms are
// arranged into a tree of bag relations for the semijoin executor.
type strategy uint8

const (
	joinTree          strategy = iota // GYO join tree, one bag per atom; acyclic queries only
	treeDecomposition                 // min-fill tree decomposition; applies to every query
	ghd                               // generalized hypertree decomposition of bounded width
)

// String is the strategy's name in EXPLAIN output.
func (s strategy) String() string {
	return [...]string{joinTree: "join-tree", treeDecomposition: "tree-decomposition", ghd: "ghd"}[s]
}

// planEngine is the one plan-based engine behind Yannakakis, Decomposition,
// Auto and Hypertree. It plans with its first strategy and, when that
// strategy does not apply to the instantiated query (cyclic for a join
// tree, wider than maxWidth for a GHD), falls back to a tree decomposition,
// which always applies.
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
	p, _, _ := e.prepare(atoms, d, fixed)
	return p.satisfiable()
}

func (e planEngine) Project(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	e.st.Inc(obs.CtrProjectCalls)
	p, _, _ := e.prepare(atoms, d, fixed)
	return p.projectAnswers(proj, fixed)
}

// Explain prepares the plan on a copy of e without sink, pool or meter, so
// it records nothing; the shapes it builds still land in the plan cache.
func (e planEngine) Explain(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) obs.Plan {
	e.st, e.pl, e.gm = nil, nil, nil
	p, used, width := e.prepare(atoms, d, fixed)
	out := planToObs(p, e.name, used.String(), width)
	out.Fallback = used != e.first
	return out
}

// planToObs converts a prepared plan into the structured EXPLAIN value.
func planToObs(p *plan, engine, strategy string, width int) obs.Plan {
	out := obs.Plan{Engine: engine, Strategy: strategy, Width: width, Atoms: p.nAtoms}
	for i, r := range p.rels {
		atoms := 0
		if i < len(p.bagAtoms) {
			atoms = p.bagAtoms[i]
		}
		out.Bags = append(out.Bags, obs.PlanBag{
			Vars:   append([]string(nil), r.vars...),
			Atoms:  atoms,
			Rows:   r.n,
			Parent: p.parent[i],
		})
	}
	return out
}

// plan is a tree of node relations (from a join tree or a tree
// decomposition) ready for semijoin processing.
type plan struct {
	rels     []*varRel
	dict     *db.Dict
	parent   []int
	order    []int // bottom-up
	failed   bool  // a ground atom failed or a node relation is empty by construction
	st       *obs.Stats
	pl       *par.Pool
	gm       *guard.Meter
	nAtoms   int   // instantiated atoms the plan covers
	bagAtoms []int // atoms assigned per bag (diagnostics for Explain)
}

// trivialPlan is the plan for a query whose atoms were all ground and
// passed: a single empty-row relation.
func trivialPlan(st *obs.Stats) *plan {
	return &plan{
		rels:   []*varRel{{n: 1}},
		parent: []int{-1},
		order:  []int{0},
		st:     st,
	}
}

// instantiate applies fixed to the atoms, checks ground atoms directly
// against the database, and returns the remaining atoms with variables.
// ok=false means a ground atom failed.
func instantiate(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) ([]cq.Atom, bool) {
	var out []cq.Atom
	for _, a := range atoms {
		inst := fixed.ApplyAtom(a)
		if inst.IsGround() {
			vals := make([]string, len(inst.Args))
			for i, t := range inst.Args {
				vals[i] = t.Value()
			}
			if !d.Contains(inst.Rel, vals...) {
				return nil, false
			}
			continue
		}
		out = append(out, inst)
	}
	return cq.DedupAtoms(out), true
}

// prepare instantiates the atoms once, fetches the structural shape for the
// engine's first strategy — or, when that strategy does not apply, counts
// one fallback and fetches the tree decomposition instead — and
// materializes one relation per bag, in parallel over e.pl (each bag is an
// independent backtracking search, so row sets and counters match the
// sequential pass). It returns the plan, the strategy that shaped it, and
// the shape's width. A plan with failed=true is provably unsatisfiable.
func (e planEngine) prepare(atoms []cq.Atom, d *db.Database, fixed cq.Mapping) (*plan, strategy, int) {
	st, gm := e.st, e.gm
	inst, ok := instantiate(atoms, d, fixed)
	if !ok || len(inst) == 0 {
		// Nothing to shape: a ground atom failed, or all were ground and held.
		p := &plan{failed: true, st: st}
		if ok {
			p = trivialPlan(st)
		}
		width := 0
		if e.first == joinTree {
			width = 1 // a join tree is width 1 by definition, even an empty one
		}
		return p, e.first, width
	}
	used := e.first
	sh := e.shape(used, inst)
	if !sh.ok {
		st.Inc(obs.CtrFallbacks)
		used = treeDecomposition
		sh = e.shape(used, inst)
	}
	// A join tree has one bag per atom; the decompositions enforce each
	// atom at the first bag covering its variables, whether or not the atom
	// is part of that bag's edge cover.
	var assigned [][]cq.Atom
	if used != joinTree {
		assigned = assignAtoms(sh.bags, inst)
	}
	var cand map[string][]uint32
	if used == treeDecomposition {
		cand = candidateDomains(inst, d)
	}
	p := &plan{dict: d.Dict(), parent: sh.parent, order: sh.order, st: st, pl: e.pl, gm: gm, nAtoms: len(inst)}
	p.rels = par.Map(e.pl, len(sh.parent), func(i int) *varRel {
		guard.Fault(guard.SiteCQEvalBag)
		switch used {
		case joinTree:
			return joinBag(inst[i].Vars(), []cq.Atom{inst[i]}, d, st, gm)
		case ghd:
			local := append([]cq.Atom(nil), assigned[i]...)
			for _, ei := range sh.covers[i] {
				local = append(local, inst[ei])
			}
			return joinBag(sh.bags[i], cq.DedupAtoms(local), d, st, gm)
		default:
			return domainBag(sh.bags[i], assigned[i], cand, d, st, gm)
		}
	})
	p.bagAtoms = make([]int, len(p.rels))
	for i, r := range p.rels {
		if r.n == 0 {
			p.failed = true
		}
		p.bagAtoms[i] = 1
		if assigned != nil {
			p.bagAtoms[i] = len(assigned[i])
		}
		st.Add(obs.CtrBagRows, int64(r.n))
	}
	st.Add(obs.CtrBagsBuilt, int64(len(p.rels)))
	return p, used, sh.width
}

// shape returns the structural plan of inst under strategy s, from the plan
// cache when the variable shape of inst has been planned before. ok=false
// on the returned shape means s does not apply to inst.
func (e planEngine) shape(s strategy, inst []cq.Atom) *cachedShape {
	st := e.st
	// maxWidth needs no place in the key: the cache belongs to one engine.
	prefix := [...]string{joinTree: "jt", treeDecomposition: "td", ghd: "ghd"}[s]
	return e.cache.do(shapeKey(prefix, inst), st, func() *cachedShape {
		hg := cq.AtomsHypergraph(inst)
		switch s {
		case joinTree:
			acyclic, jt := hg.IsAcyclic()
			if !acyclic {
				return &cachedShape{}
			}
			st.Inc(obs.CtrJoinTreesBuilt)
			return &cachedShape{ok: true, parent: jt.Parent, order: jt.Order, width: 1}
		case ghd:
			for k := 1; k <= e.maxWidth; k++ {
				if g, ok := hg.GeneralizedHypertreeDecomposition(k); ok {
					st.Inc(obs.CtrGHDsBuilt)
					return &cachedShape{ok: true, bags: g.Bags, parent: g.Parent, order: bottomUpOrder(g.Parent), covers: g.Covers, width: k}
				}
			}
			return &cachedShape{}
		default:
			dec := hg.TreeDecomposition()
			st.Inc(obs.CtrDecompositionsBuilt)
			return &cachedShape{ok: true, bags: dec.Bags, parent: dec.Parent, order: bottomUpOrder(dec.Parent), width: dec.Width()}
		}
	})
}

// assignAtoms places each atom at the first bag that covers its variables.
func assignAtoms(bags [][]string, inst []cq.Atom) [][]cq.Atom {
	bagSets := make([]map[string]bool, len(bags))
	for i, b := range bags {
		bagSets[i] = make(map[string]bool, len(b))
		for _, v := range b {
			bagSets[i][v] = true
		}
	}
	assigned := make([][]cq.Atom, len(bags))
place:
	for _, a := range inst {
		for i := range bagSets {
			if coversAtom(bagSets[i], a) {
				assigned[i] = append(assigned[i], a)
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

// joinBag materializes a bag whose atoms cover all of its variables: the
// join of the atoms projected to the bag.
func joinBag(vars []string, atoms []cq.Atom, d *db.Database, st *obs.Stats, gm *guard.Meter) *varRel {
	r := newVarRel(vars)
	r.setData(cq.ProjectionIDs(atoms, d, nil, st, gm, r.vars))
	gm.ChargeTuples(int64(r.n))
	return r
}

// domainBag materializes a tree-decomposition bag: the satisfying
// assignments of its atoms, extended over per-variable candidate domains
// for the bag variables no assigned atom constrains.
func domainBag(vars []string, atoms []cq.Atom, cand map[string][]uint32, d *db.Database, st *obs.Stats, gm *guard.Meter) *varRel {
	r := newVarRel(vars)
	covered := make(map[string]bool)
	for _, a := range atoms {
		for _, v := range a.Vars() {
			covered[v] = true
		}
	}
	var uncovered []string
	for _, v := range r.vars {
		if !covered[v] {
			uncovered = append(uncovered, v)
		}
	}
	base := cq.ProjectionIDs(atoms, d, nil, st, gm, r.vars)
	gm.ChargeTuples(int64(len(base) / r.w))
	vals := make([][]uint32, len(uncovered))
	for k, v := range uncovered {
		vals[k] = cand[v]
	}
	r.setData(extendOverDomains(base, r.w, varPositions(r.vars, uncovered), vals, gm))
	if len(uncovered) > 0 {
		st.Add(obs.CtrDomainProductRows, int64(r.n))
	}
	return r
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
	for _, i := range p.order {
		if pa := p.parent[i]; pa != -1 {
			p.gm.Checkpoint()
			guard.Fault(guard.SiteCQEvalSemijoin)
			p.rels[pa].semijoin(p.rels[i], p.st)
			p.st.Inc(obs.CtrSemijoinPasses)
			if p.rels[pa].n == 0 {
				return false
			}
		}
	}
	root := p.order[len(p.order)-1]
	return p.rels[root].n > 0
}

// projectAnswers performs the full Yannakakis pipeline: bottom-up reduction,
// top-down reduction, then a projecting join along the tree. Bindings from
// fixed for projection variables are merged into every output row.
func (p *plan) projectAnswers(proj []string, fixed cq.Mapping) []cq.Mapping {
	if p.failed {
		return nil
	}
	// Bottom-up full reduction (sequential; see satisfiable).
	for _, i := range p.order {
		if pa := p.parent[i]; pa != -1 {
			p.gm.Checkpoint()
			guard.Fault(guard.SiteCQEvalSemijoin)
			p.rels[pa].semijoin(p.rels[i], p.st)
			p.st.Inc(obs.CtrSemijoinPasses)
			if p.rels[pa].n == 0 {
				return nil
			}
		}
	}
	p.topDownReduce()
	// Projecting join along the tree.
	n := len(p.rels)
	children := make([][]int, n)
	root := -1
	for i, pa := range p.parent {
		if pa == -1 {
			root = i
		} else {
			children[pa] = append(children[pa], i)
		}
	}
	subtreeVars := make([][]string, n)
	var collect func(int) []string
	collect = func(v int) []string {
		vars := p.rels[v].vars
		for _, c := range children[v] {
			vars = unionVars(vars, collect(c))
		}
		subtreeVars[v] = vars
		return vars
	}
	collect(root)
	// Sibling subtrees are independent, so their recursive answer relations
	// compute in parallel; the fold into the parent stays in child order, so
	// the join sequence — and the join counter — match the sequential pass.
	var answers func(int) *varRel
	answers = func(v int) *varRel {
		r := p.rels[v]
		if kids := children[v]; len(kids) > 0 {
			for _, cr := range par.Map(p.pl, len(kids), func(k int) *varRel {
				return answers(kids[k])
			}) {
				p.gm.Checkpoint()
				r = join(r, cr, p.gm)
				p.st.Inc(obs.CtrJoins)
			}
		}
		keep := sharedVars(subtreeVars[v], proj)
		if pa := p.parent[v]; pa != -1 {
			keep = unionVars(keep, sharedVars(p.rels[v].vars, p.rels[pa].vars))
		}
		return r.project(keep)
	}
	result := answers(root)
	extra := cq.Mapping{}
	for _, v := range proj {
		if c, ok := fixed[v]; ok {
			extra[v] = c
		}
	}
	// Translate the ID rows back to strings: this is the only place the
	// projecting pipeline touches the dictionary.
	out := cq.NewMappingSet()
	for i := 0; i < result.n; i++ {
		row := result.row(i)
		merged := make(cq.Mapping, len(result.vars)+len(extra))
		for k, v := range result.vars {
			if id := row[k]; id != db.NoID {
				merged[v] = p.dict.Term(id)
			}
		}
		for k, c := range extra {
			merged[k] = c
		}
		out.Add(merged)
	}
	return out.All()
}

// topDownReduce semijoins every node with its (already reduced) parent. At
// Parallelism 1 children reduce in reverse bottom-up order; in parallel
// they reduce in waves by depth: a node's parent is final after the
// previous wave and each task writes only its own relation, so the reduced
// relations — and the semijoin count, one per tree edge — are identical to
// the sequential pass.
func (p *plan) topDownReduce() {
	if !p.pl.Parallel() {
		for j := len(p.order) - 1; j >= 0; j-- {
			i := p.order[j]
			if pa := p.parent[i]; pa != -1 {
				p.gm.Checkpoint()
				guard.Fault(guard.SiteCQEvalSemijoin)
				p.rels[i].semijoin(p.rels[pa], p.st)
				p.st.Inc(obs.CtrSemijoinPasses)
			}
		}
		return
	}
	depth := make([]int, len(p.rels))
	maxDepth := 0
	for j := len(p.order) - 1; j >= 0; j-- { // reverse bottom-up = parents first
		i := p.order[j]
		if pa := p.parent[i]; pa != -1 {
			depth[i] = depth[pa] + 1
			if depth[i] > maxDepth {
				maxDepth = depth[i]
			}
		}
	}
	waves := make([][]int, maxDepth+1)
	for j := len(p.order) - 1; j >= 0; j-- {
		i := p.order[j]
		if p.parent[i] != -1 {
			waves[depth[i]] = append(waves[depth[i]], i)
		}
	}
	for _, wave := range waves {
		wave := wave
		p.pl.Run(len(wave), func(k int) {
			i := wave[k]
			p.gm.Checkpoint()
			guard.Fault(guard.SiteCQEvalSemijoin)
			p.rels[i].semijoin(p.rels[p.parent[i]], p.st)
			p.st.Inc(obs.CtrSemijoinPasses)
		})
	}
}
