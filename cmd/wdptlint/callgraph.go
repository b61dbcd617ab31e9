package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The whole-program rules (R10-R13) run on a type-resolved cross-package
// call graph built over the full loaded closure — the selected packages
// plus every module package they transitively import. The graph records
// static call edges (direct calls and method calls resolved by go/types);
// calls through function values are invisible to it, which the rules treat
// as a documented approximation. Calls on interface methods are kept as
// edges to the abstract method and expanded — for reachability questions —
// to every module-declared concrete method implementing them, so "core
// calls Engine.Project" reaches the metered engine kernels behind the
// interface.

// callGraph is the static call graph of the loaded module closure.
type callGraph struct {
	l     *loader
	pkgs  []*lintPkg
	decls map[*types.Func]*declSite     // module function/method -> declaration
	calls map[*types.Func][]callEdge    // caller -> static callees
	impls map[*types.Func][]*types.Func // interface method -> module implementations

	// carriers caches carriesCancellation answers per named type.
	carriers map[*types.Named]bool
}

// declSite ties a module function object to its declaration.
type declSite struct {
	pkg  *lintPkg
	decl *ast.FuncDecl
}

// callEdge is one static call site.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

// buildCallGraph indexes every function declaration and static call edge in
// pkgs (the loaded closure).
func buildCallGraph(l *loader, pkgs []*lintPkg) *callGraph {
	g := &callGraph{
		l:        l,
		pkgs:     pkgs,
		decls:    make(map[*types.Func]*declSite),
		calls:    make(map[*types.Func][]callEdge),
		impls:    make(map[*types.Func][]*types.Func),
		carriers: make(map[*types.Named]bool),
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls[fn] = &declSite{pkg: p, decl: fd}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeFunc(p.info, call); callee != nil {
						g.calls[fn] = append(g.calls[fn], callEdge{callee: callee, pos: call.Pos()})
					}
					return true
				})
			}
		}
	}
	g.buildImpls()
	return g
}

// buildImpls maps every method of every module-declared interface to the
// module-declared concrete methods implementing it.
func (g *callGraph) buildImpls() {
	var ifaces []*types.Named
	var concretes []*types.Named
	for _, p := range g.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				if named.Underlying().(*types.Interface).NumMethods() > 0 {
					ifaces = append(ifaces, named)
				}
			} else {
				concretes = append(concretes, named)
			}
		}
	}
	for _, iface := range ifaces {
		it := iface.Underlying().(*types.Interface)
		for _, concrete := range concretes {
			impl := types.Type(concrete)
			if !types.Implements(impl, it) {
				impl = types.NewPointer(concrete)
				if !types.Implements(impl, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
				if cm, ok := obj.(*types.Func); ok && g.decls[cm] != nil {
					g.impls[m] = append(g.impls[m], cm)
				}
			}
		}
	}
}

// reachInfo is one step of a witness path from a function to a sink.
type reachInfo struct {
	next *types.Func // the callee through which the sink is reached (nil at the sink itself)
	sink string      // description of the sink ultimately reached
}

// reverseEdges builds the reverse adjacency (callee -> callers) in
// deterministic order — callers visited in (file, line) order, their edges in
// source order — and returns the distinct call targets in first-seen order.
// With expandIfaces, a call through an interface method also links the
// caller to every module implementation of that method.
func (g *callGraph) reverseEdges(expandIfaces bool) (rev map[*types.Func][]*types.Func, targets []*types.Func) {
	rev = make(map[*types.Func][]*types.Func)
	seen := make(map[*types.Func]bool)
	addEdge := func(caller, callee *types.Func) {
		rev[callee] = append(rev[callee], caller)
		if !seen[callee] {
			seen[callee] = true
			targets = append(targets, callee)
		}
	}
	for _, caller := range g.sortedDecls() {
		for _, e := range g.calls[caller] {
			addEdge(caller, e.callee)
			if expandIfaces {
				for _, impl := range g.impls[e.callee] {
					addEdge(caller, impl)
				}
			}
		}
	}
	return rev, targets
}

// reachable computes, by reverse BFS over the call graph, the set of module
// functions from which some call path leads to a sink. matchSink classifies
// call targets; expandIfaces additionally propagates through interface
// methods to their module implementations. A non-nil stopAt blocks
// propagation through matching functions (the sinks themselves are never
// blocked): the function still appears in the result, but its callers are
// not implicated through it. The result maps each reaching function to a
// witness step, so findings can print the call chain. Traversal order is
// deterministic, so witness chains are stable run to run.
func (g *callGraph) reachable(matchSink func(*types.Func) string, expandIfaces bool, stopAt func(*types.Func) bool) map[*types.Func]reachInfo {
	rev, targets := g.reverseEdges(expandIfaces)
	reach := make(map[*types.Func]reachInfo)
	sinks := make(map[*types.Func]bool)
	var frontier []*types.Func
	// Seed: every call target (concrete or abstract) matching a sink.
	for _, callee := range targets {
		if desc := matchSink(callee); desc != "" {
			reach[callee] = reachInfo{sink: desc}
			sinks[callee] = true
			frontier = append(frontier, callee)
		}
	}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, fn := range frontier {
			if stopAt != nil && !sinks[fn] && stopAt(fn) {
				continue
			}
			info := reach[fn]
			for _, caller := range rev[fn] {
				if _, ok := reach[caller]; ok {
					continue
				}
				reach[caller] = reachInfo{next: fn, sink: info.sink}
				next = append(next, caller)
			}
		}
		frontier = next
	}
	return reach
}

// witnessChain renders the call path recorded by reachable, e.g.
// "Top -> mid.Step -> (*Pool).Run".
func (g *callGraph) witnessChain(fn *types.Func, reach map[*types.Func]reachInfo, max int) string {
	var parts []string
	cur := fn
	for i := 0; i < max; i++ {
		parts = append(parts, g.funcID(cur))
		info, ok := reach[cur]
		if !ok || info.next == nil {
			break
		}
		cur = info.next
	}
	return strings.Join(parts, " -> ")
}

// funcID renders a stable, human-readable identity for a function:
// "internal/cqeval.(*varRel).addAll", "internal/par.Map", or — for
// non-module functions — the full package path ("time.Now").
func (g *callGraph) funcID(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if rel := g.l.relOf(pkgPath); rel != "" {
		pkgPath = rel
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = fmt.Sprintf("(%s).%s", typeShortName(sig.Recv().Type()), fn.Name())
	}
	if pkgPath == "" || pkgPath == "." {
		return name
	}
	return pkgPath + "." + name
}

// typeShortName renders a receiver type without its package qualifier:
// "*varRel", "Meter".
func typeShortName(t types.Type) string {
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		ptr = "*"
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return ptr + named.Obj().Name()
	}
	return ptr + t.String()
}

// fnMatches reports whether fn is the function relPkg.name (package-level
// when recv is "", otherwise a method on the named receiver type). relPkg
// is a module-relative path ("internal/par") or a full non-module import
// path ("net/http").
func (g *callGraph) fnMatches(fn *types.Func, relPkg, recv, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	pkgPath := fn.Pkg().Path()
	if rel := g.l.relOf(pkgPath); rel != "" {
		pkgPath = rel
	}
	if pkgPath != relPkg {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv == "" {
		return sig.Recv() == nil
	}
	if sig.Recv() == nil {
		return false
	}
	return strings.TrimPrefix(typeShortName(sig.Recv().Type()), "*") == recv
}

// ---------------------------------------------------------------------------
// Cancellation carriers (R10's "threads a context" predicate).

// carriesCancellation reports whether fn can thread cancellation to its
// callees: some parameter or receiver is a context.Context, a *guard.Meter,
// a *par.Pool, a struct carrying one of those in a field (one level deep),
// or a module interface implemented by a carrying module type (the
// cqeval.Engine/WithMeter convention).
func (g *callGraph) carriesCancellation(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil && g.typeCarries(recv.Type(), 2) {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if g.typeCarries(params.At(i).Type(), 2) {
			return true
		}
	}
	return false
}

// typeCarries reports whether a value of type t can carry cancellation.
// depth bounds the struct-field recursion.
func (g *callGraph) typeCarries(t types.Type, depth int) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		pkgPath := obj.Pkg().Path()
		if pkgPath == "context" && obj.Name() == "Context" {
			return true
		}
		rel := g.l.relOf(pkgPath)
		if rel == "internal/guard" && obj.Name() == "Meter" {
			return true
		}
		if rel == "internal/par" && obj.Name() == "Pool" {
			return true
		}
		if rel == "" {
			return false // other non-module types never carry
		}
	}
	if cached, ok := g.carriers[named]; ok {
		return cached
	}
	if depth <= 0 {
		return false
	}
	g.carriers[named] = false // cycle guard
	carries := false
	switch u := named.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if g.typeCarries(u.Field(i).Type(), depth-1) {
				carries = true
				break
			}
		}
	case *types.Interface:
		// A module interface carries when some module implementation does
		// (the engines carry their meter behind cqeval.Engine).
		for _, p := range g.pkgs {
			scope := p.pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				impl, ok := tn.Type().(*types.Named)
				if !ok || types.IsInterface(impl) {
					continue
				}
				if !types.Implements(impl, u) && !types.Implements(types.NewPointer(impl), u) {
					continue
				}
				if g.typeCarries(impl, depth-1) {
					carries = true
					break
				}
			}
			if carries {
				break
			}
		}
	}
	g.carriers[named] = carries
	return carries
}

// sortedDecls returns the graph's declared functions in deterministic
// (file, line) order, so rule findings come out stably ordered.
func (g *callGraph) sortedDecls() []*types.Func {
	fns := make([]*types.Func, 0, len(g.decls))
	for fn := range g.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		pi := g.l.fset.Position(fns[i].Pos())
		pj := g.l.fset.Position(fns[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return fns
}
