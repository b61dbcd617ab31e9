package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Whole-program rules. Unlike R1-R9, which each inspect one file at a time,
// R10-R13 run once over the full type-resolved closure and reason along the
// cross-package call graph:
//
//	R10 context propagation  — internal/* functions that transitively reach
//	    a cancellable sink must be able to thread cancellation
//	R11 goroutine hygiene    — (per-file scan, listed here for numbering;
//	    implemented in rules.go alongside the other syntactic rules)
//	R12 determinism taint    — time.Now / unseeded math/rand derived values
//	    must not flow into the answer-ordering and reporting packages
//	R13 budget-metering      — tuple loops in the evaluation kernels must
//	    charge the guard meter, audited against the meterage manifest

// lintWholeProgram runs the call-graph rules over the loaded closure and
// returns findings restricted to the selected packages.
func lintWholeProgram(l *loader, selected []*lintPkg, enabled map[string]bool) []Finding {
	if !enabled["R10"] && !enabled["R12"] && !enabled["R13"] {
		return nil
	}
	g := buildCallGraph(l, l.closure())
	selectedRel := make(map[string]bool, len(selected))
	for _, p := range selected {
		selectedRel[p.rel] = true
	}
	var out []Finding
	if enabled["R10"] {
		out = append(out, lintContextReach(g, selectedRel)...)
	}
	if enabled["R12"] {
		out = append(out, lintDeterminismTaint(g, selectedRel)...)
	}
	if enabled["R13"] {
		out = append(out, lintMeterCoverage(g, selectedRel)...)
	}
	return out
}

// ---------------------------------------------------------------------------
// R10 — context propagation (whole-program half).
//
// A budget's wall-clock limit and a caller's cancellation both travel down
// the evaluation stack as a context (or as the meter/pool values derived
// from one at the Solve boundary). A function that transitively reaches a
// cancellable sink — a worker-pool fan-out, a guard meter check, an index
// scan, an outbound HTTP call — but accepts no way to thread cancellation
// is a function whose work a budget trip cannot stop: the classic dropped
// ctx two calls above the sink. The substrate packages that *implement*
// cancellation (par, guard, db, obs) are exempt. Propagation stops at a
// carrier: once some function on the path
// can thread cancellation, it is the cancellation boundary, and callers
// above it are not implicated through that path.

// r10ExemptPkgs are the cancellation substrate: they implement the sinks
// rather than consuming them.
var r10ExemptPkgs = map[string]bool{
	"internal/par":   true,
	"internal/guard": true,
	"internal/db":    true,
	"internal/obs":   true,
}

// cancellableSink classifies call targets that end a cancellation chain.
func (g *callGraph) cancellableSink(fn *types.Func) string {
	switch {
	case g.fnMatches(fn, "internal/par", "Pool", "Run"):
		return "par.(*Pool).Run"
	case g.fnMatches(fn, "internal/par", "", "Map"):
		return "par.Map"
	case g.fnMatches(fn, "internal/guard", "Meter", "ChargeTuples"),
		g.fnMatches(fn, "internal/guard", "Meter", "Checkpoint"),
		g.fnMatches(fn, "internal/guard", "Meter", "TryAnswer"):
		return "guard.(*Meter)." + fn.Name()
	case g.fnMatches(fn, "internal/db", "Relation", "MatchingIDs"):
		return "db.(*Relation).MatchingIDs"
	case g.fnMatches(fn, "net/http", "Client", "Do"),
		g.fnMatches(fn, "net/http", "", "Get"),
		g.fnMatches(fn, "net/http", "", "Post"),
		g.fnMatches(fn, "net/http", "", "PostForm"),
		g.fnMatches(fn, "net/http", "", "Head"):
		return "net/http." + fn.Name()
	}
	return ""
}

func lintContextReach(g *callGraph, selectedRel map[string]bool) []Finding {
	reach := g.reachable(g.cancellableSink, true, g.carriesCancellation)
	var out []Finding
	for _, fn := range g.sortedDecls() {
		site := g.decls[fn]
		if !selectedRel[site.pkg.rel] || !isInternalPkg(site.pkg.rel) || r10ExemptPkgs[site.pkg.rel] {
			continue
		}
		info, ok := reach[fn]
		if !ok {
			continue
		}
		if g.carriesCancellation(fn) {
			continue
		}
		out = append(out, g.l.finding(site.decl.Name.Pos(), "R10",
			"%s reaches cancellable sink %s (%s) but accepts no context.Context, *guard.Meter, *par.Pool, or carrier type: a budget trip cannot stop this work",
			g.funcID(fn), info.sink, g.witnessChain(fn, reach, 6)))
	}
	return out
}

// ---------------------------------------------------------------------------
// R12 — determinism taint.
//
// The reproduction's headline claim is byte-identical enumeration, and the
// fallback ladder's transfer of the Mengel-Skritek approximation guarantees
// assumes degraded modes are deterministic too. A wall-clock reading or an
// unseeded random draw that flows — possibly through several calls — into
// internal/report (the canonical encoder behind wdpteval -json, wdptd, and
// the BENCH_*.json tables), internal/cq (MappingSet ordering), or
// internal/harness (the experiment tables) silently breaks both.
// internal/obs and internal/guard are whitelisted at their declared
// sources: timers and deadlines are measurements about the run, not values
// inside answers, and the whitelist boundary is where that distinction is
// reviewed.

// r12SinkPkgs are the determinism-sensitive packages.
var r12SinkPkgs = map[string]bool{
	"internal/report":  true,
	"internal/cq":      true,
	"internal/harness": true,
}

// r12WhitelistPkgs may call timers/rand freely and block taint propagation:
// their use of wall-clock and randomness is declared and reviewed.
var r12WhitelistPkgs = map[string]bool{
	"internal/obs":   true,
	"internal/guard": true,
}

// seededRandConstructors are the math/rand package-level functions that do
// not draw from the global (unseeded) source.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "Seed": true,
}

// taintSource classifies direct nondeterminism sources: time.Now and the
// global-source math/rand package functions. Methods on an explicit
// *rand.Rand are exempt — constructing one takes a seed, and seed plumbing
// is audited by its own test suite.
func taintSource(fn *types.Func) string {
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			return "time.Now"
		}
	case "math/rand", "math/rand/v2":
		if !seededRandConstructors[fn.Name()] {
			return "math/rand." + fn.Name()
		}
	}
	return ""
}

// mapOrderSourcePos reports a map-range inside fd whose iteration-ordered
// values are returned unsorted: the loop appends a range variable to a
// slice that the function returns without passing it to sort.*/slices.*.
// R1 polices this shape locally everywhere; classifying it as an R12 taint
// source additionally propagates it across package boundaries into the
// determinism-sensitive sinks.
func mapOrderSourcePos(p *lintPkg, fd *ast.FuncDecl) token.Pos {
	if fd.Body == nil {
		return token.NoPos
	}
	// Objects passed to a sort call anywhere in the function.
	sorted := make(map[types.Object]bool)
	returned := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(p.info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if pkg := fn.Pkg().Path(); pkg == "sort" || pkg == "slices" {
				for _, arg := range n.Args {
					if id := rootIdent(arg); id != nil {
						if obj := p.info.ObjectOf(id); obj != nil {
							sorted[obj] = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id := rootIdent(res); id != nil {
					if obj := p.info.ObjectOf(id); obj != nil {
						returned[obj] = true
					}
				}
			}
		}
		return true
	})
	pos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		loopVars := make(map[types.Object]bool)
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok && id != nil {
				if obj := p.info.ObjectOf(id); obj != nil {
					loopVars[obj] = true
				}
			}
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || !isBuiltin(p.info, call.Fun, "append") || len(call.Args) < 2 {
				return true
			}
			usesLoopVar := false
			for _, arg := range call.Args[1:] {
				if id := rootIdent(arg); id != nil && loopVars[p.info.ObjectOf(id)] {
					usesLoopVar = true
				}
			}
			if !usesLoopVar {
				return true
			}
			if id := rootIdent(call.Args[0]); id != nil {
				obj := p.info.ObjectOf(id)
				if obj != nil && returned[obj] && !sorted[obj] {
					pos = rs.Pos()
				}
			}
			return true
		})
		return true
	})
	return pos
}

func lintDeterminismTaint(g *callGraph, selectedRel map[string]bool) []Finding {
	// Phase 1: direct sources — functions outside the whitelist whose body
	// calls time.Now / global math/rand, or returns unsorted map-iteration
	// order.
	sourceDesc := make(map[*types.Func]string)
	for fn, site := range g.decls {
		if r12WhitelistPkgs[site.pkg.rel] {
			continue
		}
		for _, e := range g.calls[fn] {
			if desc := taintSource(e.callee); desc != "" {
				sourceDesc[fn] = desc
				break
			}
		}
		if _, ok := sourceDesc[fn]; !ok {
			if pos := mapOrderSourcePos(site.pkg, site.decl); pos != token.NoPos {
				sourceDesc[fn] = "unsorted map iteration"
			}
		}
	}
	// Phase 2: propagate taint to callers through the call graph, stopping
	// at the whitelist boundary.
	type taintStep struct {
		next *types.Func
		desc string
	}
	tainted := make(map[*types.Func]taintStep)
	var frontier []*types.Func
	for _, fn := range g.sortedDecls() {
		if desc, ok := sourceDesc[fn]; ok {
			tainted[fn] = taintStep{desc: desc}
			frontier = append(frontier, fn)
		}
	}
	rev, _ := g.reverseEdges(false)
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, fn := range frontier {
			step := tainted[fn]
			for _, caller := range rev[fn] {
				site := g.decls[caller]
				if site == nil || r12WhitelistPkgs[site.pkg.rel] {
					continue
				}
				if _, ok := tainted[caller]; ok {
					continue
				}
				tainted[caller] = taintStep{next: fn, desc: step.desc}
				next = append(next, caller)
			}
		}
		frontier = next
	}
	chain := func(fn *types.Func) string {
		var parts []string
		cur := fn
		for i := 0; i < 6; i++ {
			parts = append(parts, g.funcID(cur))
			step, ok := tainted[cur]
			if !ok || step.next == nil {
				break
			}
			cur = step.next
		}
		if step, ok := tainted[fn]; ok {
			parts = append(parts, step.desc)
		}
		return strings.Join(parts, " -> ")
	}
	// Phase 3: report every call edge inside a sink package whose target is
	// tainted, plus direct source calls made by sink-package functions.
	var out []Finding
	for _, fn := range g.sortedDecls() {
		site := g.decls[fn]
		if !r12SinkPkgs[site.pkg.rel] || !selectedRel[site.pkg.rel] {
			continue
		}
		for _, e := range g.calls[fn] {
			if desc := taintSource(e.callee); desc != "" {
				out = append(out, g.l.finding(e.pos, "R12",
					"%s is a nondeterminism source inside determinism-sensitive package %s: answer bytes and %s must not depend on it",
					desc, site.pkg.rel, "BENCH_*.json tables"))
				continue
			}
			if _, ok := tainted[e.callee]; ok && g.decls[e.callee] != nil {
				out = append(out, g.l.finding(e.pos, "R12",
					"call to %s carries a nondeterministic value (%s) into determinism-sensitive package %s",
					g.funcID(e.callee), chain(e.callee), site.pkg.rel))
			}
		}
		if desc, ok := sourceDesc[fn]; ok && desc == "unsorted map iteration" {
			if pos := mapOrderSourcePos(site.pkg, site.decl); pos != token.NoPos {
				out = append(out, g.l.finding(pos, "R12",
					"%s returns unsorted map-iteration order from determinism-sensitive package %s",
					g.funcID(fn), site.pkg.rel))
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// R13 — budget-metering coverage.
//
// The guard layer only bounds what the hot loops actually charge: a new
// join kernel that loops over tuples without touching the meter escapes
// every budget silently — queries the admission layer believed bounded run
// unbounded. The rule finds tuple/candidate loops (ranges and len()-bounded
// for loops over []cq.Mapping / []db.Tuple collections) in the evaluation
// kernels (internal/cqeval, internal/core) and requires the enclosing
// function to reach the guard meter through the call graph. A deliberately
// unmetered cold path carries a reasoned //lint:ignore R13 at the loop,
// like every other rule.

// r13ScopePkgs are the evaluation-kernel packages audited for metering.
var r13ScopePkgs = map[string]bool{
	"internal/cqeval": true,
	"internal/core":   true,
}

// meterSink classifies the guard-meter charging surface.
func (g *callGraph) meterSink(fn *types.Func) string {
	switch {
	case g.fnMatches(fn, "internal/guard", "Meter", "ChargeTuples"),
		g.fnMatches(fn, "internal/guard", "Meter", "Checkpoint"),
		g.fnMatches(fn, "internal/guard", "Meter", "TryAnswer"):
		return "guard.(*Meter)." + fn.Name()
	}
	return ""
}

// tupleLoopPos returns the position of the first loop in fd ranging over a
// tuple/candidate collection ([]cq.Mapping or []db.Tuple, by value or
// pointer element), or a len()-bounded for loop over one; NoPos when the
// function has no such loop.
func (g *callGraph) tupleLoopPos(p *lintPkg, fd *ast.FuncDecl) token.Pos {
	if fd.Body == nil {
		return token.NoPos
	}
	pos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if g.tupleCollection(p.info.TypeOf(n.X)) {
				pos = n.Pos()
			}
		case *ast.ForStmt:
			if n.Cond == nil {
				return true
			}
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				call, ok := c.(*ast.CallExpr)
				if !ok || !isBuiltin(p.info, call.Fun, "len") || len(call.Args) != 1 {
					return true
				}
				if g.tupleCollection(p.info.TypeOf(call.Args[0])) {
					pos = n.Pos()
				}
				return true
			})
		}
		return true
	})
	return pos
}

// tupleCollection reports whether t is a slice of tuples or candidate
// mappings: []cq.Mapping or []db.Tuple (module-relative packages), with
// pointer elements allowed.
func (g *callGraph) tupleCollection(t types.Type) bool {
	if t == nil {
		return false
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem := slice.Elem()
	if p, ok := elem.(*types.Pointer); ok {
		elem = p.Elem()
	}
	named, ok := elem.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	rel := g.l.relOf(named.Obj().Pkg().Path())
	name := named.Obj().Name()
	return (rel == "internal/cq" && name == "Mapping") || (rel == "internal/db" && name == "Tuple")
}

func lintMeterCoverage(g *callGraph, selectedRel map[string]bool) []Finding {
	scopeSelected := false
	for rel := range r13ScopePkgs {
		if selectedRel[rel] {
			scopeSelected = true
		}
	}
	if !scopeSelected {
		return nil
	}
	reach := g.reachable(g.meterSink, true, nil)
	var out []Finding
	for _, fn := range g.sortedDecls() {
		site := g.decls[fn]
		if !r13ScopePkgs[site.pkg.rel] || !selectedRel[site.pkg.rel] {
			continue
		}
		pos := g.tupleLoopPos(site.pkg, site.decl)
		if pos == token.NoPos {
			continue
		}
		if _, metered := reach[fn]; metered {
			continue
		}
		out = append(out, g.l.finding(pos, "R13",
			"tuple loop in %s runs unmetered: no path to guard.(*Meter).ChargeTuples/Checkpoint/TryAnswer — charge the meter or add a reasoned //lint:ignore R13 at the loop",
			g.funcID(fn)))
	}
	return out
}
