package cqeval

import (
	"slices"
	"sync"

	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/par"
)

// Prepared is a conjunctive query planned once for a fixed set of bound
// variables: the atoms the binding makes ground are split off, and on the
// first Run that reaches the bags the plan shape is fetched through the
// plan cache (backtracking needs none) and each bag's atoms are compiled.
// Run evaluates one binding on dictionary IDs with the rows, counters,
// guard charges and fault sites of a one-shot Project under the
// equivalent string mapping, and returns the answers as ID rows. The
// database must not change while the query is in use. Safe for
// concurrent use.
type Prepared struct {
	e       planEngine
	d       *db.Database
	foreign func(fixed []uint32) ([]uint32, int) // engines outside this package
	atoms   []cq.Atom                            // the distinct atoms with a variable outside bound
	ground  []cq.Atom                            // the distinct others
	bound   []string
	proj    []string
	vars    []string // Run's columns
	out     []string // the unbound projection variables
	emit    []int    // indexes into bound of the bound projection variables

	once sync.Once
	sh   *preparedShape

	mu   sync.Mutex
	free []*plan // Run scratch not in use
}

// preparedShape is the structural shape with one compiled bag per node,
// the semijoin positions of each tree edge, and the children and kept
// variables of the projecting join.
type preparedShape struct {
	used     strategy
	width    int
	parent   []int
	order    []int // bottom-up
	root     int
	bags     []preparedBag
	children [][]int
	keep     [][]string
	edges    [][2][]int // per non-root node, the shared variables' positions in its parent and in it
}

// preparedBag is one bag: its sorted variables, its atoms compiled against
// the bound variables they mention (fixed indexes those into bound), the
// slots of its variables in the compilation, and, in a tree decomposition,
// the positions no atom covers with their candidate domains.
type preparedBag struct {
	vars      []string
	nAtoms    int
	c         *cq.CompiledAtoms
	fixed     []int
	at        []int
	uncovered []int
	vals      [][]uint32
}

// preparer is the private interface the plan engine implements; Prepare
// dispatches through it.
type preparer interface {
	prepare(atoms []cq.Atom, d *db.Database, bound, proj []string) *Prepared
}

// Prepare plans atoms over d for repeated evaluation under bindings of the
// variables bound, each of which must occur in atoms, projecting the
// answers to proj. Engines of this package plan once; Run on any other
// engine calls its Project, with db.NoID bound to a string the dictionary
// lacks, and encodes the answers.
func Prepare(eng Engine, atoms []cq.Atom, d *db.Database, bound, proj []string) *Prepared {
	occurs := cq.AtomsVars(atoms)
	vars := slices.DeleteFunc(slices.Clone(proj), func(v string) bool {
		return slices.Contains(bound, v) || !slices.Contains(occurs, v)
	})
	slices.Sort(vars)
	if p, ok := eng.(preparer); ok {
		q := p.prepare(atoms, d, bound, proj)
		q.vars = vars
		return q
	}
	return &Prepared{bound: bound, proj: proj, vars: vars, foreign: func(fixed []uint32) ([]uint32, int) {
		m := make(cq.Mapping, len(bound))
		for i, v := range bound {
			if fixed[i] != db.NoID {
				m[v] = d.Dict().Term(fixed[i])
				continue
			}
			for m[v] = "\x00"; ; m[v] += "\x00" { // grow until the dictionary lacks it
				if _, known := d.Dict().ID(m[v]); !known {
					break
				}
			}
		}
		answers := eng.Project(atoms, d, m, proj)
		rows := make([]uint32, 0, len(answers)*len(vars))
		for _, h := range answers {
			for _, v := range vars {
				id := db.NoID
				if c, ok := h[v]; ok {
					id, _ = d.Dict().ID(c)
				}
				rows = append(rows, id)
			}
		}
		return rows, len(answers)
	}}
}

// Vars returns the columns of Run's rows: the variables of proj outside
// bound that the atoms mention, sorted. It must not be modified.
func (q *Prepared) Vars() []string { return q.vars }

// Run returns the distinct restrictions to Vars() of the homomorphisms
// from the atoms to the database that map bound[i] to the term with ID
// fixed[i] (db.NoID stands for one value outside the dictionary): n rows
// of len(Vars()) IDs each, in the canonical order of cq.CompareMappings on
// their decodings. fixed is read during the call only.
func (q *Prepared) Run(fixed []uint32) (rows []uint32, n int) {
	if q.foreign != nil {
		return q.foreign(fixed)
	}
	q.e.st.Inc(obs.CtrProjectCalls)
	b := q.bind(fixed, nil)
	if b == nil {
		return nil, 0
	}
	r, ok := b.answerRel(fixed) // its columns are Vars(): answerRel keeps the sorted out
	if !ok {
		return nil, 0
	}
	cq.SortRows(r.data, r.n, q.d.Dict())
	return r.data, r.n
}

func (e planEngine) prepare(atoms []cq.Atom, d *db.Database, bound, proj []string) *Prepared {
	q := &Prepared{e: e, d: d, bound: bound, proj: proj, atoms: make([]cq.Atom, 0, len(atoms))}
	for _, a := range atoms {
		switch {
		case slices.ContainsFunc(q.atoms, a.Equal) || slices.ContainsFunc(q.ground, a.Equal):
		case slices.ContainsFunc(a.Args, func(t cq.Term) bool { return !q.valued(t) }):
			q.atoms = append(q.atoms, a)
		default:
			q.ground = append(q.ground, a)
		}
	}
	for _, v := range proj {
		if b := slices.Index(bound, v); b >= 0 {
			q.emit = append(q.emit, b)
		} else if slices.ContainsFunc(q.atoms, func(a cq.Atom) bool { return slices.Contains(a.Args, cq.V(v)) }) {
			q.out = append(q.out, v)
		}
	}
	return q
}

// valued reports whether a binding gives t a value: t is a constant or a
// bound variable.
func (q *Prepared) valued(t cq.Term) bool {
	return !t.IsVar() || slices.Contains(q.bound, t.Value())
}

// value returns the ID a valued term takes under fixed.
func (q *Prepared) value(t cq.Term, fixed []uint32) uint32 {
	if b := slices.Index(q.bound, t.Value()); t.IsVar() && b >= 0 {
		return fixed[b]
	}
	id, _ := q.d.Dict().ID(t.Value())
	return id
}

// bind returns the query to evaluate under fixed: nil when a ground atom
// does not hold; q itself; or, when the binding makes an atom coincide
// with an earlier one, q without it — instantiating and deduplicating the
// atoms would have kept one copy and planned that shape. Coincidence
// compares strs's strings when set (one-shot calls), the IDs otherwise.
func (q *Prepared) bind(fixed []uint32, strs cq.Mapping) *Prepared {
	var buf [8]uint32
	for _, a := range q.ground {
		row := buf[:0]
		for _, t := range a.Args {
			row = append(row, q.value(t, fixed))
		}
		if r := q.d.Relation(a.Rel); r == nil || !r.ContainsIDs(row) {
			return nil
		}
	}
	same := func(s, t cq.Term) bool {
		if !q.valued(s) || !q.valued(t) {
			return false
		} else if strs == nil {
			return q.value(s, fixed) == q.value(t, fixed)
		}
		str := func(t cq.Term) string {
			if t.IsVar() {
				return strs[t.Value()]
			}
			return t.Value()
		}
		return str(s) == str(t)
	}
	var kept []cq.Atom
	for j, b := range q.atoms {
		if !slices.ContainsFunc(q.atoms[:j], func(a cq.Atom) bool {
			return a.Rel == b.Rel && slices.EqualFunc(a.Args, b.Args, func(s, t cq.Term) bool { return s == t || same(s, t) })
		}) {
			if kept != nil {
				kept = append(kept, b)
			}
		} else if kept == nil {
			kept = append(slices.Clip(q.ground), q.atoms[:j]...)
		}
	}
	if kept == nil {
		return q
	}
	return q.e.prepare(kept, q.d, q.bound, q.proj)
}

// masked returns the atoms with their valued terms replaced by one
// constant: the instantiated atoms as far as a shape can tell.
func (q *Prepared) masked() []cq.Atom {
	out := make([]cq.Atom, len(q.atoms))
	for i, a := range q.atoms {
		args := slices.Clone(a.Args)
		for p, t := range args {
			if q.valued(t) {
				args[p] = cq.C("")
			}
		}
		out[i] = cq.NewAtom(a.Rel, args...)
	}
	return out
}

// shaped returns the plan, built on first use: at most one shape lookup
// per Prepared.
func (q *Prepared) shaped() *preparedShape {
	q.once.Do(func() { q.sh = q.e.plan(q) })
	return q.sh
}

// plan fetches the structural shape of q's atoms for the engine's first
// strategy — or, when that strategy does not apply, counts one fallback
// and fetches the tree decomposition instead — and compiles its bags.
// Backtracking looks up no shape: its one bag holds every atom, over all
// the variables the binding leaves open, and keeps the output variables.
func (e planEngine) plan(q *Prepared) *preparedShape {
	used := e.first
	if used == backtracking {
		vars := slices.DeleteFunc(cq.AtomsVars(q.atoms), func(v string) bool { return slices.Contains(q.bound, v) })
		slices.Sort(vars)
		b := preparedBag{vars: vars, nAtoms: len(q.atoms)}
		b.compile(q.atoms, q.bound)
		return &preparedShape{used: used, parent: []int{-1}, order: []int{0}, bags: []preparedBag{b}, children: make([][]int, 1), keep: [][]string{sharedVars(vars, q.out)}}
	}
	sh := e.shape(used, q)
	if !sh.ok {
		e.st.Inc(obs.CtrFallbacks)
		used = treeDecomposition
		sh = e.shape(used, q)
	}
	// A join tree has one bag per atom; the decompositions enforce each
	// atom at the first bag covering its variables, whether or not the atom
	// is part of that bag's edge cover.
	var assigned [][]int
	var cand map[string][]uint32
	if used != joinTree {
		masked := q.masked()
		assigned = assignAtoms(sh.bags, masked)
		if used == treeDecomposition {
			cand = candidateDomains(masked, q.d)
		}
	}
	ps := &preparedShape{used: used, width: sh.width, parent: sh.parent, order: sh.order, bags: make([]preparedBag, len(sh.parent))}
	for i := range ps.bags {
		b := &ps.bags[i]
		b.vars, b.nAtoms = sh.bags[i], 1
		var atoms []cq.Atom
		if used == joinTree {
			atoms = q.atoms[i : i+1]
		} else {
			for _, k := range assigned[i] {
				atoms = append(atoms, q.atoms[k])
			}
			b.nAtoms = len(atoms)
		}
		if used == ghd {
			for _, k := range sh.covers[i] {
				atoms = append(atoms, q.atoms[k])
			}
			atoms = cq.DedupAtoms(atoms)
		}
		b.compile(atoms, q.bound)
		for k, sl := range b.at {
			if sl < 0 && used == treeDecomposition {
				b.uncovered = append(b.uncovered, k)
				b.vals = append(b.vals, cand[b.vars[k]])
			}
		}
	}
	// The projecting join: each node keeps the output variables of its
	// subtree and the variables it shares with its parent.
	ps.children = make([][]int, len(ps.parent))
	ps.edges = make([][2][]int, len(ps.parent))
	for i, pa := range ps.parent {
		if pa == -1 {
			ps.root = i
			continue
		}
		ps.children[pa] = append(ps.children[pa], i)
		shared := sharedVars(ps.bags[pa].vars, ps.bags[i].vars)
		ps.edges[i] = [2][]int{varPositions(ps.bags[pa].vars, shared), varPositions(ps.bags[i].vars, shared)}
	}
	ps.keep = make([][]string, len(ps.parent))
	var collect func(int) []string
	collect = func(v int) []string {
		vars := ps.bags[v].vars
		for _, c := range ps.children[v] {
			vars = unionVars(vars, collect(c))
		}
		ps.keep[v] = sharedVars(vars, q.out)
		if pa := ps.parent[v]; pa != -1 {
			ps.keep[v] = unionVars(ps.keep[v], sharedVars(ps.bags[v].vars, ps.bags[pa].vars))
		}
		return vars
	}
	collect(ps.root)
	return ps
}

// compile compiles atoms as b's atoms against the bound variables.
func (b *preparedBag) compile(atoms []cq.Atom, bound []string) {
	b.c = cq.CompileBound(atoms, bound)
	for k, sl := range b.c.Slots(bound) {
		if sl >= 0 {
			b.fixed = append(b.fixed, k)
		}
	}
	b.at = b.c.Slots(b.vars)
}

// build materializes one relation per bag under fixed, in parallel over
// the engine's pool (each bag is an independent backtracking search, so
// row sets and counters match the sequential pass), into a run taken from
// q's free list; the caller hands it back with release.
func (q *Prepared) build(fixed []uint32) *plan {
	sh, st, gm := q.shaped(), q.e.st, q.e.gm
	var p *plan
	q.mu.Lock()
	if n := len(q.free); n > 0 {
		p, q.free = q.free[n-1], q.free[:n-1]
	}
	q.mu.Unlock()
	if p == nil {
		p = &plan{rels: make([]varRel, len(sh.bags)), sh: sh, st: st, pl: q.e.pl, gm: gm}
	}
	q.e.pl.Run(len(sh.bags), func(i int) {
		guard.Fault(guard.SiteCQEvalBag)
		b, r := &sh.bags[i], &p.rels[i]
		r.vars, r.w, r.n = b.vars, len(b.vars), 0
		var buf [8]uint32
		ids := buf[:0]
		for _, k := range b.fixed {
			ids = append(ids, fixed[k])
		}
		k := searchers.Get().(*cq.Searcher)
		rows := k.ProjectIDs(b.c, q.d, ids, b.at, st, gm, r.data[:0])
		searchers.Put(k)
		if sh.used != treeDecomposition {
			r.setData(rows)
			gm.ChargeTuples(int64(r.n))
			return
		}
		gm.ChargeTuples(int64(len(rows) / r.w))
		r.setData(extendOverDomains(rows, r.w, b.uncovered, b.vals, gm))
		if len(b.uncovered) > 0 {
			st.Add(obs.CtrDomainProductRows, int64(r.n))
		}
	})
	p.failed = false
	for _, r := range p.rels {
		p.failed = p.failed || r.n == 0
		st.Add(obs.CtrBagRows, int64(r.n))
	}
	st.Add(obs.CtrBagsBuilt, int64(len(p.rels)))
	return p
}

// searchers holds idle bag searchers, whose buffers outlive the query
// they last searched.
var searchers = sync.Pool{New: func() any { return new(cq.Searcher) }}

// release returns a run to q's free list.
func (q *Prepared) release(p *plan) {
	q.mu.Lock()
	q.free = append(q.free, p)
	q.mu.Unlock()
}

// answerRel runs the full Yannakakis pipeline under fixed — bottom-up and
// top-down reduction, then the projecting join — and returns the distinct
// answer rows over the unbound projection variables; ok is false when
// there is none.
func (q *Prepared) answerRel(fixed []uint32) (result varRel, ok bool) {
	if len(q.atoms) == 0 {
		return varRel{n: 1}, true // all atoms were ground and held: one empty row
	}
	p := q.build(fixed)
	if !p.satisfiable() {
		q.release(p)
		return varRel{}, false
	}
	p.topDownReduce()
	result = *p.answers(q.sh.root)
	q.release(p) // the answer relation shares no storage with the bags
	return result, true
}

// project decodes answerRel's rows with the bound projection variables and
// extra added to each.
func (q *Prepared) project(fixed []uint32, extra cq.Mapping) []cq.Mapping {
	result, ok := q.answerRel(fixed)
	if !ok {
		return nil
	}
	// answerRel left the rows distinct, so they decode to distinct answers.
	// The bound and extra values are the same in every answer, so sorting
	// the rows sorts the answers.
	cq.SortRows(result.data, result.n, q.d.Dict())
	out := make([]cq.Mapping, result.n)
	for i := range out {
		m := make(cq.Mapping, len(result.vars)+len(q.emit)+len(extra))
		for k, v := range result.vars {
			if id := result.row(i)[k]; id != db.NoID {
				m[v] = q.d.Dict().Term(id)
			}
		}
		for _, b := range q.emit {
			if id := fixed[b]; id != db.NoID {
				m[q.bound[b]] = q.d.Dict().Term(id)
			}
		}
		for v, c := range extra {
			m[v] = c
		}
		out[i] = m
	}
	return out
}

// answers computes the projecting join of v's subtree. Sibling subtrees
// are independent, so their answer relations compute in parallel; the fold
// into the parent stays in child order, so the join sequence — and the
// join counter — match the sequential pass.
func (p *plan) answers(v int) *varRel {
	r := &p.rels[v]
	if kids := p.sh.children[v]; len(kids) > 0 {
		for _, cr := range par.Map(p.pl, len(kids), func(k int) *varRel {
			return p.answers(kids[k])
		}) {
			p.gm.Checkpoint()
			r = join(r, cr, p.gm)
			p.st.Inc(obs.CtrJoins)
		}
	}
	return r.project(p.sh.keep[v])
}

// oneShot prepares atoms for the variables of fixed they mention and binds
// fixed: the single-call path of Satisfiable, Project and Explain. Each
// bound value is looked up here once, uncounted (a run counts one lookup
// per occurrence, as the instantiated constants were counted); coincidence
// is decided on the strings; and the projection variables fixed binds
// outside the atoms come back as extra. q is nil when a ground atom does
// not hold.
func (e planEngine) oneShot(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) (q *Prepared, ids []uint32, extra cq.Mapping) {
	bound := make([]string, 0, len(fixed))
	ids = make([]uint32, 0, len(fixed))
	for _, a := range atoms {
		for _, t := range a.Args {
			if c, ok := fixed[t.Value()]; ok && t.IsVar() && !slices.Contains(bound, t.Value()) {
				bound = append(bound, t.Value())
				id, _ := d.Dict().ID(c)
				ids = append(ids, id)
			}
		}
	}
	for _, v := range proj {
		if c, ok := fixed[v]; ok && !slices.Contains(bound, v) {
			if extra == nil {
				extra = cq.Mapping{}
			}
			extra[v] = c
		}
	}
	return e.prepare(atoms, d, bound, proj).bind(ids, fixed), ids, extra
}
