package cq

import (
	"slices"

	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// CompiledAtoms is the database-independent compiled form of an atom list
// that is searched repeatedly under assignments over one fixed variable
// domain: the variable slot layout and the component decomposition induced
// by treating exactly that domain as pre-bound. Compiling once hoists the
// per-call variable discovery, slot-map construction and component split
// out of hot repeated loops (the maximality check tests the same extension
// unit under every candidate homomorphism of a subtree, and a prepared
// query materializes the same bags under every binding); only the
// per-database work — constant resolution, index probes, scans — remains
// per call. A CompiledAtoms is immutable and safe for concurrent use.
type CompiledAtoms struct {
	atoms   []Atom
	vars    []string
	slotOf  map[string]int
	fixedSl []int    // slot of each pre-bound variable that occurs in atoms, in fixedDom order
	comps   [][]Atom // atomComponents(atoms, fixedDom)
	ccomps  []compiledComp
	// counted marks a compilation whose fixed variables stand for the
	// constants of an instantiation (CompileBound): each solved component
	// records a dictionary lookup per fixed occurrence, as it would for
	// those constants.
	counted bool
}

// compiledComp is the precompiled solver input for one component: the
// shared read-only argument references and the widest atom arity. args is
// nil when the component mentions constants — constants resolve against a
// specific database's dictionary, so those components compile per call
// exactly as the uncompiled path does. fixedOcc lists the slot of every
// occurrence of a fixed variable in the component's atoms.
type compiledComp struct {
	args     [][]argRef
	maxArity int
	fixedOcc []int
}

// CompileAtoms compiles atoms for repeated searches in which exactly the
// variables of fixedDom are pre-bound. Entries of fixedDom not occurring in
// atoms are dropped (a binding for a variable outside the atoms never
// constrains the search); the fixed IDs passed to a Searcher align with the
// retained entries, in fixedDom order.
func CompileAtoms(atoms []Atom, fixedDom []string) *CompiledAtoms {
	c := &CompiledAtoms{atoms: atoms, vars: AtomsVars(atoms)}
	c.slotOf = make(map[string]int, len(c.vars))
	for i, v := range c.vars {
		c.slotOf[v] = i
	}
	fixed := make([]bool, len(c.vars)) // by slot
	for _, v := range fixedDom {
		sl, ok := c.slotOf[v]
		if !ok {
			continue
		}
		c.fixedSl = append(c.fixedSl, sl)
		fixed[sl] = true
	}
	c.comps = atomComponents(atoms, func(v string) bool { return fixed[c.slotOf[v]] })
	c.ccomps = make([]compiledComp, len(c.comps))
	for ci, comp := range c.comps {
		cc := compiledComp{args: make([][]argRef, len(comp))}
		for i, a := range comp {
			refs := make([]argRef, len(a.Args))
			for p, term := range a.Args {
				if !term.IsVar() {
					cc.args = nil
					break
				}
				refs[p] = argRef{slot: c.slotOf[term.Value()]}
			}
			if cc.args == nil {
				break
			}
			cc.args[i] = refs
			if len(refs) > cc.maxArity {
				cc.maxArity = len(refs)
			}
		}
		for _, a := range comp {
			for _, term := range a.Args {
				if sl := c.slotOf[term.Value()]; term.IsVar() && fixed[sl] {
					cc.fixedOcc = append(cc.fixedOcc, sl)
				}
			}
		}
		c.ccomps[ci] = cc
	}
	return c
}

// CompileBound is CompileAtoms for atoms whose bound variables stand for
// the constants an instantiation would put in their place: searching it
// binds the same values, visits the same tuples and records the same
// counters as searching the instantiated atoms, dictionary lookups and
// misses included (one per bound occurrence in each solved component, a
// miss for each bound to db.NoID).
func CompileBound(atoms []Atom, bound []string) *CompiledAtoms {
	c := CompileAtoms(atoms, bound)
	c.counted = true
	return c
}

// Slots returns the slot of each variable of vars in the compiled layout,
// -1 for a variable the atoms do not mention: the projection argument of
// Searcher.ProjectIDs.
func (c *CompiledAtoms) Slots(vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = -1
		if sl, ok := c.slotOf[v]; ok {
			out[i] = sl
		}
	}
	return out
}

// Searcher runs repeated compiled searches reusing its internal solver
// buffers, so a satisfiability check against a constant-free compilation
// allocates nothing. The zero value is ready to use. Not safe for
// concurrent use; each goroutine needs its own searcher.
type Searcher struct {
	ctx      idContext
	solver   homSolver
	fixedBuf []uint32
	found    bool
	visit    func() bool // Satisfiable's, made once
	emit     func() bool // ProjectIDs', made once
	// During a ProjectIDs call: the projection, the rows so far, and
	// whether a row may repeat.
	at     []int
	rows   []uint32
	dedup  bool
	seen   map[string]struct{}
	keyBuf []byte
}

// reset points the searcher's context at c and d with the retained fixed
// bindings of c set to fixedIDs (db.NoID matches nothing, mirroring a
// string binding outside the active domain).
func (k *Searcher) reset(c *CompiledAtoms, d *db.Database, fixedIDs []uint32, st *obs.Stats, gm *guard.Meter) *idContext {
	ctx := &k.ctx
	ctx.atoms = c.atoms
	ctx.d = d
	ctx.dict = d.Dict()
	ctx.st = st
	ctx.gm = gm
	ctx.vars = c.vars
	ctx.slotOf = c.slotOf
	ctx.comps = c.comps
	ctx.compiled = c
	ctx.solver = &k.solver
	ctx.assign = growU32(ctx.assign, len(c.vars))
	ctx.bound = growBoolZero(ctx.bound, len(c.vars))
	ctx.lookups, ctx.misses, ctx.probes, ctx.rows = 0, 0, 0, 0
	for i, sl := range c.fixedSl {
		ctx.assign[sl] = fixedIDs[i]
		ctx.bound[sl] = true
	}
	return ctx
}

// Satisfiable reports whether the compiled atoms admit a homomorphism to d
// binding each retained fixed-domain variable to the corresponding
// dictionary-encoded ID. The search, its work counters and its guard
// charges are identical to SatisfiableObs with the equivalent string
// mapping, except that the fixed bindings arrive as IDs and therefore cost
// no dictionary probes (unless c was compiled by CompileBound). fixedIDs is
// read during the call only.
func (k *Searcher) Satisfiable(c *CompiledAtoms, d *db.Database, fixedIDs []uint32, st *obs.Stats, gm *guard.Meter) bool {
	if k.visit == nil {
		k.visit = func() bool {
			k.found = true
			return false
		}
	}
	ctx := k.reset(c, d, fixedIDs, st, gm)
	k.found = false
	ctx.run(k.visit)
	return k.found
}

// SatisfiableAt is Satisfiable with the fixed bindings gathered from ids by
// position: binding i of the compiled fixed domain is ids[at[i]]. The
// gather reuses the searcher's buffer, so callers transferring bindings out
// of a live solver assignment (cf. IDAssignment) avoid building a slice per
// call.
func (k *Searcher) SatisfiableAt(c *CompiledAtoms, d *db.Database, ids []uint32, at []int, st *obs.Stats, gm *guard.Meter) bool {
	k.fixedBuf = k.fixedBuf[:0]
	for _, i := range at {
		k.fixedBuf = append(k.fixedBuf, ids[i])
	}
	return k.Satisfiable(c, d, k.fixedBuf, st, gm)
}

// ProjectIDs appends to dst the distinct restrictions of the compiled
// atoms' homomorphisms to d (under fixedIDs, as in Satisfiable) to the
// slots at (cf. Slots), as flat row-major ID rows in the order the search
// first reaches them, and returns the extended slice; a slot of -1 reads
// db.NoID. Work is recorded and charged exactly as by HomomorphismsIDsObs.
func (k *Searcher) ProjectIDs(c *CompiledAtoms, d *db.Database, fixedIDs []uint32, at []int, st *obs.Stats, gm *guard.Meter, dst []uint32) []uint32 {
	ctx := k.reset(c, d, fixedIDs, st, gm)
	// Distinct homomorphisms differ on some search slot, so rows that keep
	// every search slot are distinct already and need no dedup set.
	k.dedup = false
	for sl := range c.vars {
		if !ctx.bound[sl] && !slices.Contains(at, sl) {
			k.dedup = true
			break
		}
	}
	if k.dedup {
		if k.seen == nil {
			k.seen = make(map[string]struct{})
		}
		clear(k.seen)
	}
	if k.emit == nil {
		k.emit = k.emitRow
	}
	k.at, k.rows = at, dst
	ctx.run(k.emit)
	dst = k.rows
	k.at, k.rows = nil, nil
	return dst
}

// emitRow appends the projection of the current homomorphism to k.rows,
// unless k.dedup and the row is there already.
func (k *Searcher) emitRow() bool {
	ctx := &k.ctx
	for _, sl := range k.at {
		id := db.NoID
		if sl >= 0 && ctx.bound[sl] {
			id = ctx.assign[sl]
		}
		k.rows = append(k.rows, id)
	}
	if k.dedup {
		row := k.rows[len(k.rows)-len(k.at):]
		k.keyBuf = db.AppendRowKey(k.keyBuf[:0], row)
		if _, dup := k.seen[string(k.keyBuf)]; dup {
			k.rows = k.rows[:len(k.rows)-len(k.at)]
		} else {
			k.seen[string(k.keyBuf)] = struct{}{}
		}
	}
	return true
}

// growU32 returns a slice of length n reusing buf's backing array when it
// is large enough. Contents are unspecified.
func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// growBoolZero returns an all-false slice of length n reusing buf's backing
// array when it is large enough.
func growBoolZero(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// growRels returns a slice of length n reusing buf's backing array when it
// is large enough. Contents are unspecified.
func growRels(buf []*db.Relation, n int) []*db.Relation {
	if cap(buf) < n {
		return make([]*db.Relation, n)
	}
	return buf[:n]
}

// growInt returns a slice of length n reusing buf's backing array when it
// is large enough. Contents are unspecified.
func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
