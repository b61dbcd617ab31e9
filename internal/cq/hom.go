package cq

import (
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// Homomorphisms enumerates every homomorphism from the given atoms to D that
// is consistent with the partial mapping fixed, invoking visit for each.
// The mapping passed to visit is defined exactly on the variables occurring
// in atoms (bindings in fixed for variables that do not occur in atoms are
// not included). visit returning false stops the enumeration.
//
// The search is backtracking with dynamic atom ordering: at every step the
// atom with the fewest candidate tuples under the current partial assignment
// is expanded next, using the per-position indexes of the database. All
// comparisons run on dictionary-encoded term IDs; query constants and fixed
// bindings are translated once up front, and answers are translated back to
// strings only when a mapping is emitted.
func Homomorphisms(atoms []Atom, d *db.Database, fixed Mapping, visit func(Mapping) bool) {
	ctx := newIDContext(atoms, d, fixed, nil, nil)
	ctx.run(func() bool { return visit(ctx.mapping()) })
}

// IDAssignment is a read-only view of the solver state delivered to the
// visit callback of HomomorphismsIDsObs, valid only for the duration of
// that call: Vars is the slot→variable layout (first-occurrence order over
// the atoms), and IDs[i] holds the dictionary-encoded binding of slot i
// when Bound[i] is true. At a complete homomorphism every variable occurs
// in some matched atom, so every slot is bound.
type IDAssignment struct {
	Vars  []string
	IDs   []uint32
	Bound []bool
}

// HomomorphismsIDsObs is Homomorphisms with observability and budgeting,
// delivering the raw dictionary-encoded solver assignment instead of
// materializing a string Mapping per homomorphism; callers that need
// strings can translate through d.Dict().Term. The view's slices alias
// live solver state and must not be retained or modified after visit
// returns. Tuples scanned and homomorphisms found are recorded on st (nil
// st disables recording at the cost of one branch per solved component —
// the hot loop itself only touches plain solver-local accumulators), and
// the candidate tuples of every expanded atom are charged to gm before
// they are scanned, so a budget bounds the backtracking search itself. A
// nil gm is the unbudgeted state. A charge past the budget aborts by the
// guard layer's *TripError panic, which the public Solve boundaries
// recover.
func HomomorphismsIDsObs(atoms []Atom, d *db.Database, fixed Mapping, st *obs.Stats, gm *guard.Meter, visit func(IDAssignment) bool) {
	ctx := newIDContext(atoms, d, fixed, st, gm)
	view := IDAssignment{Vars: ctx.vars, IDs: ctx.assign, Bound: ctx.bound}
	ctx.run(func() bool { return visit(view) })
}

// atomComponents groups atoms connected through variables for which fixed
// reports false, each group in atom order and the groups in the order of
// their first atoms. Atoms whose variables are all fixed (or that are
// ground) each form their own singleton component.
func atomComponents(atoms []Atom, fixed func(v string) bool) [][]Atom {
	n := len(atoms)
	if n == 1 {
		return [][]Atom{atoms}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	byVar := make(map[string]int)
	for i, a := range atoms {
		for _, t := range a.Args {
			if !t.IsVar() || fixed(t.Value()) {
				continue
			}
			if j, ok := byVar[t.Value()]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[t.Value()] = i
			}
		}
	}
	var out [][]Atom
	group := make([]int, n) // root → 1 + its index in out
	for i, a := range atoms {
		r := find(i)
		if group[r] == 0 {
			out = append(out, nil)
			group[r] = len(out)
		}
		out[group[r]-1] = append(out[group[r]-1], a)
	}
	return out
}

// idContext is the dictionary-encoded search state shared by every
// component of one Homomorphisms call: a slot per variable occurring in
// the atoms, a flat uint32 assignment, and the accumulated dictionary /
// index-probe work counts flushed to st when the call finishes.
type idContext struct {
	atoms []Atom
	d     *db.Database
	dict  *db.Dict
	st    *obs.Stats
	gm    *guard.Meter

	vars   []string       // slot → variable, first-occurrence order
	slotOf map[string]int // variable → slot
	assign []uint32       // slot → bound term ID (valid when bound[slot])
	bound  []bool
	comps  [][]Atom // precompiled component split; nil → computed by splitFixed

	// compiled and solver are set by Searcher: compiled supplies shared
	// per-component argument references (aligned with comps) and solver is
	// a reusable homSolver scratch. Component solves never nest — in the
	// cross-product path the trailing components are fully materialized
	// before the first one streams — so one scratch solver suffices.
	compiled *CompiledAtoms
	solver   *homSolver

	lookups int64 // dictionary probes (constants and fixed bindings)
	misses  int64 // probes for constants outside the active domain
	probes  int64 // MatchingIDs index probes
	rows    int64 // offsets returned by those probes
}

func newIDContext(atoms []Atom, d *db.Database, fixed Mapping, st *obs.Stats, gm *guard.Meter) *idContext {
	ctx := &idContext{
		atoms: atoms,
		d:     d,
		dict:  d.Dict(),
		st:    st,
		gm:    gm,
		vars:  AtomsVars(atoms),
	}
	ctx.slotOf = make(map[string]int, len(ctx.vars))
	for i, v := range ctx.vars {
		ctx.slotOf[v] = i
	}
	ctx.assign = make([]uint32, len(ctx.vars))
	ctx.bound = make([]bool, len(ctx.vars))
	// Pre-bind the fixed variables that occur in the atoms. A fixed value
	// outside the active domain binds to NoID: no stored row contains
	// NoID, so every atom mentioning that variable fails to match, which
	// is exactly the legacy unknown-string behaviour.
	for v, c := range fixed {
		sl, ok := ctx.slotOf[v]
		if !ok {
			continue
		}
		ctx.lookups++
		id, known := ctx.dict.ID(c)
		if !known {
			ctx.misses++
		}
		ctx.assign[sl] = id
		ctx.bound[sl] = true
	}
	return ctx
}

// mapping materializes the current assignment as a string Mapping over the
// bound slots.
func (ctx *idContext) mapping() Mapping {
	h := make(Mapping, len(ctx.vars))
	for sl, v := range ctx.vars {
		if ctx.bound[sl] {
			h[v] = ctx.dict.Term(ctx.assign[sl])
		}
	}
	return h
}

// run decomposes the atoms into components connected by unfixed variables
// — solutions of different components are independent, so each component
// is solved once and the results are combined instead of re-solving a
// component for every binding of the others — and invokes visit once per
// combined solution with the context assignment holding the solution.
// visit returning false stops the enumeration.
func (ctx *idContext) run(visit func() bool) {
	defer func() {
		ctx.st.Add(obs.CtrDictLookups, ctx.lookups)
		ctx.st.Add(obs.CtrDictMisses, ctx.misses)
		ctx.st.Add(obs.CtrIndexProbes, ctx.probes)
		ctx.st.Add(obs.CtrIndexProbeRows, ctx.rows)
	}()
	// Components are connected through unbound slots: a pre-bound (fixed)
	// variable does not connect atoms, matching the legacy decomposition.
	comps := ctx.splitFixed()
	switch len(comps) {
	case 0:
		visit()
		return
	case 1:
		ctx.solveComponent(0, comps[0], visit)
		return
	}
	// Materialize all components after the first; abort early if any is
	// unsatisfiable. The first component streams.
	type compSols struct {
		slots []int // slots this component's search binds
		rows  []uint32
		n     int
	}
	rest := make([]compSols, len(comps)-1)
	for i, comp := range comps[1:] {
		cs := compSols{slots: ctx.searchSlots(comp)}
		ctx.solveComponent(i+1, comp, func() bool {
			for _, sl := range cs.slots {
				cs.rows = append(cs.rows, ctx.assign[sl])
			}
			cs.n++
			return true
		})
		if cs.n == 0 {
			return
		}
		rest[i] = cs
	}
	stopped := false
	ctx.solveComponent(0, comps[0], func() bool {
		var cross func(k int) bool
		cross = func(k int) bool {
			if k == len(rest) {
				if !visit() {
					stopped = true
				}
				return !stopped
			}
			cs := rest[k]
			w := len(cs.slots)
			for s := 0; s < cs.n; s++ {
				for j, sl := range cs.slots {
					ctx.assign[sl] = cs.rows[s*w+j]
					ctx.bound[sl] = true
				}
				ok := cross(k + 1)
				for _, sl := range cs.slots {
					ctx.bound[sl] = false
				}
				if !ok {
					return false
				}
			}
			return true
		}
		return cross(0)
	})
}

// splitFixed computes the component decomposition treating pre-bound
// slots as fixed. A context built from CompiledAtoms carries the split
// precomputed.
func (ctx *idContext) splitFixed() [][]Atom {
	if ctx.comps != nil {
		return ctx.comps
	}
	return atomComponents(ctx.atoms, func(v string) bool { return ctx.bound[ctx.slotOf[v]] })
}

// searchSlots returns the slots of the component's variables that are not
// pre-bound, i.e. the slots its search will bind.
func (ctx *idContext) searchSlots(comp []Atom) []int {
	var out []int
	for _, v := range AtomsVars(comp) {
		sl := ctx.slotOf[v]
		if !ctx.bound[sl] {
			out = append(out, sl)
		}
	}
	return out
}

// solveComponent runs the backtracking search on the ci-th connected
// component. Work counts accumulate in plain solver fields and flush to st
// once per component, keeping the per-tuple cost of instrumentation to one
// integer increment whether or not st is nil. A context carrying a scratch
// solver (Searcher) reuses its buffers, and a constant-free compiled
// component reuses its shared argument references, so the solve itself is
// the only remaining per-call work.
func (ctx *idContext) solveComponent(ci int, atoms []Atom, visit func() bool) {
	s := ctx.solver
	if s == nil {
		s = &homSolver{}
	}
	// Reset the solver, keeping the reusable scratch backing arrays.
	// args is rebound below: either to the compiled shared slice (never
	// written) or to freshly compiled per-call references.
	*s = homSolver{
		ctx: ctx, atoms: atoms, visit: visit,
		done: s.done, rowBuf: s.rowBuf,
		rels: s.rels, lens: s.lens, relBad: s.relBad,
	}
	maxArity := 0
	if c := ctx.compiled; c != nil && c.ccomps[ci].args != nil {
		s.args = c.ccomps[ci].args
		maxArity = c.ccomps[ci].maxArity
	} else {
		s.args = make([][]argRef, len(atoms))
		for i, a := range atoms {
			refs := make([]argRef, len(a.Args))
			for p, term := range a.Args {
				if term.IsVar() {
					refs[p] = argRef{slot: ctx.slotOf[term.Value()]}
				} else {
					ctx.lookups++
					id, known := ctx.dict.ID(term.Value())
					if !known {
						ctx.misses++
					}
					refs[p] = argRef{slot: -1, id: id}
				}
			}
			s.args[i] = refs
			if len(refs) > maxArity {
				maxArity = len(refs)
			}
		}
	}
	if c := ctx.compiled; c != nil && c.counted {
		// The fixed occurrences stand for instantiated constants: count
		// the lookups resolving them would have made.
		for _, sl := range c.ccomps[ci].fixedOcc {
			ctx.lookups++
			if ctx.assign[sl] == db.NoID {
				ctx.misses++
			}
		}
	}
	s.done = growBoolZero(s.done, len(atoms))
	s.rowBuf = growU32(s.rowBuf, maxArity)
	s.rels = growRels(s.rels, len(atoms))
	s.lens = growInt(s.lens, len(atoms))
	s.relBad = growBoolZero(s.relBad, len(atoms))
	for i, a := range atoms {
		r := ctx.d.Relation(a.Rel)
		s.rels[i] = r
		if r == nil || r.Arity() != len(a.Args) {
			s.relBad[i] = true
		} else {
			s.lens[i] = r.Len()
		}
	}
	s.solve(0)
	ctx.st.Add(obs.CtrTuplesScanned, s.scanned)
	ctx.st.Add(obs.CtrHomomorphisms, s.found)
}

// Satisfiable reports whether some homomorphism from atoms to D consistent
// with fixed exists.
func Satisfiable(atoms []Atom, d *db.Database, fixed Mapping) bool {
	return SatisfiableObs(atoms, d, fixed, nil, nil)
}

// SatisfiableObs is Satisfiable with work counts recorded on st and scan
// work charged to gm (both may be nil).
func SatisfiableObs(atoms []Atom, d *db.Database, fixed Mapping, st *obs.Stats, gm *guard.Meter) bool {
	found := false
	ctx := newIDContext(atoms, d, fixed, st, gm)
	ctx.run(func() bool {
		found = true
		return false
	})
	return found
}

// argRef is one compiled atom argument: either a variable slot (slot ≥ 0)
// or a constant term ID (slot < 0; id may be db.NoID for constants outside
// the active domain, which match nothing).
type argRef struct {
	slot int
	id   uint32
}

type homSolver struct {
	ctx    *idContext
	atoms  []Atom
	args   [][]argRef
	done   []bool
	rowBuf []uint32 // scratch for ground-atom rows
	// rels, lens and relBad are resolved once per component — relations
	// cannot change during a solve — so the per-step candidate loop costs
	// no name lookups. relBad marks a missing relation or an arity
	// mismatch; pickAtom reports it at the same point the per-step lookup
	// used to, so the search and its counters are unchanged.
	rels    []*db.Relation
	lens    []int
	relBad  []bool
	visit   func() bool
	stopped bool
	scanned int64 // tuples inspected; flushed to obs once per component
	found   int64 // complete homomorphisms visited
}

func (s *homSolver) solve(nDone int) {
	if s.stopped {
		return
	}
	if nDone == len(s.atoms) {
		s.found++
		if !s.visit() {
			s.stopped = true
		}
		return
	}
	idx, rel, pos, id, ok := s.pickAtom()
	if !ok {
		return // some atom has no candidates under the current assignment
	}
	s.done[idx] = true
	args := s.args[idx]
	if rel == nil {
		// Fully bound atom already verified by pickAtom.
		s.solve(nDone + 1)
		s.done[idx] = false
		return
	}
	ctx := s.ctx
	var offsets []int
	if pos >= 0 {
		offsets = rel.MatchingIDs(pos, id)
		ctx.probes++
		ctx.rows += int64(len(offsets))
	}
	n := rel.Len()
	// Slots newly bound while matching one tuple; at most one per argument.
	// The stack array keeps the common arities allocation-free per level.
	var bsArr [8]int
	boundSlots := bsArr[:0]
	iterate := func(i int) bool {
		s.scanned++
		row := rel.Scan(i)
		boundSlots = boundSlots[:0]
		okT := true
		for p, ar := range args {
			have := row[p]
			if ar.slot < 0 {
				if ar.id != have {
					okT = false
					break
				}
				continue
			}
			if ctx.bound[ar.slot] {
				if ctx.assign[ar.slot] != have {
					okT = false
					break
				}
				continue
			}
			ctx.assign[ar.slot] = have
			ctx.bound[ar.slot] = true
			boundSlots = append(boundSlots, ar.slot)
		}
		if okT {
			s.solve(nDone + 1)
		}
		for _, sl := range boundSlots {
			ctx.bound[sl] = false
		}
		return !s.stopped
	}
	// Charge the candidates of this expansion up front: the budget trips
	// before the scan runs, not after, so MaxTuples bounds the search.
	if offsets != nil {
		ctx.gm.ChargeTuples(int64(len(offsets)))
		for _, i := range offsets {
			if !iterate(i) {
				break
			}
		}
	} else if pos < 0 {
		ctx.gm.ChargeTuples(int64(n))
		for i := 0; i < n; i++ {
			if !iterate(i) {
				break
			}
		}
	}
	s.done[idx] = false
}

// pickAtom selects the unprocessed atom with the smallest candidate-set
// estimate. It returns the atom index; the relation to scan (nil when the
// atom is fully bound and already verified); the index position and term
// ID to scan with (pos = -1 means full scan); and ok=false when some
// unprocessed atom provably has no candidates.
func (s *homSolver) pickAtom() (idx int, rel *db.Relation, pos int, id uint32, ok bool) {
	ctx := s.ctx
	best := -1
	bestCost := -1
	bestPos := -1
	var bestID uint32
	var bestRel *db.Relation
	for i := range s.atoms {
		if s.done[i] {
			continue
		}
		if s.relBad[i] {
			return 0, nil, 0, 0, false
		}
		r := s.rels[i]
		// Fully bound atoms cost 0 or fail immediately.
		ground, row := s.groundRow(i)
		if ground {
			if !r.ContainsIDs(row) {
				return 0, nil, 0, 0, false
			}
			return i, nil, 0, 0, true
		}
		cost := s.lens[i]
		p := -1
		var v uint32
		for pi, ar := range s.args[i] {
			value, bound := s.argValue(ar)
			if !bound {
				continue
			}
			m := r.MatchingIDs(pi, value)
			ctx.probes++
			ctx.rows += int64(len(m))
			if c := len(m); c < cost || p == -1 {
				cost, p, v = c, pi, value
			}
		}
		if cost == 0 && p >= 0 {
			return 0, nil, 0, 0, false
		}
		if best == -1 || cost < bestCost {
			best, bestCost, bestPos, bestID, bestRel = i, cost, p, v, r
		}
	}
	return best, bestRel, bestPos, bestID, true
}

// argValue resolves a compiled argument under the current assignment:
// constants are always bound (possibly to NoID), variables are bound when
// their slot is.
func (s *homSolver) argValue(ar argRef) (uint32, bool) {
	if ar.slot < 0 {
		return ar.id, true
	}
	if s.ctx.bound[ar.slot] {
		return s.ctx.assign[ar.slot], true
	}
	return 0, false
}

// groundRow reports whether every argument of atom i is bound under the
// current assignment and, if so, returns the resulting ID row (valid until
// the next groundRow call).
func (s *homSolver) groundRow(i int) (bool, []uint32) {
	args := s.args[i]
	row := s.rowBuf[:len(args)]
	for p, ar := range args {
		v, ok := s.argValue(ar)
		if !ok {
			return false, nil
		}
		row[p] = v
	}
	return true, row
}
