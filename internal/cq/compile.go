package cq

import (
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// CompiledAtoms is the database-independent compiled form of an atom list
// that is checked repeatedly under assignments over one fixed variable
// domain: the variable slot layout and the component decomposition induced
// by treating exactly that domain as pre-bound. Compiling once hoists the
// per-call variable discovery, slot-map construction and component split
// out of hot repeated-satisfiability loops (the maximality check tests the
// same extension unit under every candidate homomorphism of a subtree);
// only the per-database work — constant resolution, index probes, scans —
// remains per call. A CompiledAtoms is immutable and safe for concurrent
// use.
type CompiledAtoms struct {
	atoms   []Atom
	vars    []string
	slotOf  map[string]int
	fixedSl []int    // slot of each pre-bound variable that occurs in atoms, in fixedDom order
	comps   [][]Atom // atomComponents(atoms, fixedDom)
	ccomps  []compiledComp
}

// compiledComp is the precompiled solver input for one component: the
// shared read-only argument references and the widest atom arity. args is
// nil when the component mentions constants — constants resolve against a
// specific database's dictionary, so those components compile per call
// exactly as the uncompiled path does.
type compiledComp struct {
	args     [][]argRef
	maxArity int
}

// CompileAtoms compiles atoms for repeated satisfiability checks in which
// exactly the variables of fixedDom are pre-bound. Entries of fixedDom not
// occurring in atoms are dropped (a binding for a variable outside the
// atoms never constrains the search); the fixed IDs passed to a SatChecker
// align with the retained entries, in fixedDom order.
func CompileAtoms(atoms []Atom, fixedDom []string) *CompiledAtoms {
	c := &CompiledAtoms{atoms: atoms, vars: AtomsVars(atoms)}
	c.slotOf = make(map[string]int, len(c.vars))
	for i, v := range c.vars {
		c.slotOf[v] = i
	}
	fixed := make(Mapping, len(fixedDom))
	for _, v := range fixedDom {
		sl, ok := c.slotOf[v]
		if !ok {
			continue
		}
		c.fixedSl = append(c.fixedSl, sl)
		fixed[v] = ""
	}
	c.comps = atomComponents(atoms, fixed)
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
		c.ccomps[ci] = cc
	}
	return c
}

// SatChecker runs repeated compiled satisfiability checks reusing its
// internal solver buffers, so a check against a constant-free compilation
// allocates nothing. The zero value is ready to use. Not safe for
// concurrent use; each goroutine needs its own checker.
type SatChecker struct {
	ctx      idContext
	solver   homSolver
	fixedBuf []uint32
	found    bool
	visit    func() bool
}

// Satisfiable reports whether the compiled atoms admit a homomorphism to d
// binding each retained fixed-domain variable to the corresponding
// dictionary-encoded ID (db.NoID matches nothing, mirroring a string
// binding outside the active domain). The search, its work counters and
// its guard charges are identical to SatisfiableObs with the equivalent
// string mapping, except that the fixed bindings arrive as IDs and
// therefore cost no dictionary probes. fixedIDs is read during the call
// only.
func (k *SatChecker) Satisfiable(c *CompiledAtoms, d *db.Database, fixedIDs []uint32, st *obs.Stats, gm *guard.Meter) bool {
	if k.visit == nil {
		k.visit = func() bool {
			k.found = true
			return false
		}
	}
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
	k.found = false
	ctx.run(k.visit)
	return k.found
}

// SatisfiableAt is Satisfiable with the fixed bindings gathered from ids by
// position: binding i of the compiled fixed domain is ids[at[i]]. The
// gather reuses the checker's buffer, so callers transferring bindings out
// of a live solver assignment (cf. IDAssignment) avoid building a slice per
// call.
func (k *SatChecker) SatisfiableAt(c *CompiledAtoms, d *db.Database, ids []uint32, at []int, st *obs.Stats, gm *guard.Meter) bool {
	k.fixedBuf = k.fixedBuf[:0]
	for _, i := range at {
		k.fixedBuf = append(k.fixedBuf, ids[i])
	}
	return k.Satisfiable(c, d, k.fixedBuf, st, gm)
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
