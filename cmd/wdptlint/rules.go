package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// isInternalPkg reports whether R10 applies: the library packages under
// internal/.
func isInternalPkg(rel string) bool {
	return rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// lintPackage runs the per-file rules over one package and returns the
// findings (suppressions are applied centrally by Lint, so whole-program
// findings get the same treatment).
func lintPackage(l *loader, p *lintPkg) []Finding {
	var out []Finding
	for _, f := range p.files {
		out = append(out, lintDirectives(l, f)...)
		out = append(out, lintMapOrder(l, p, f)...)
		if isInternalPkg(p.rel) {
			out = append(out, lintBackgroundContext(l, p, f)...)
		}
		if p.rel != "internal/par" {
			out = append(out, lintGoroutineJoin(l, p, f)...)
		}
		if hotPathPkg(p.rel) {
			out = append(out, lintHotPathKeys(l, p, f)...)
		}
	}
	return out
}

func (l *loader) finding(pos token.Pos, rule, format string, args ...interface{}) Finding {
	position := l.fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(l.root, file); err == nil {
		file = filepath.ToSlash(rel)
	}
	return Finding{File: file, Line: position.Line, Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------------
// R1 — map-order determinism.
//
// Go randomizes map iteration order, so a range over a map whose body feeds
// an ordered sink (appends to a slice declared outside the loop, writes to a
// writer, sends on a channel) produces run-to-run nondeterministic results.
// The canonical key-collection idiom — append the keys, then sort them before
// use — is recognized and exempted.

func lintMapOrder(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
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
		for _, s := range mapRangeSinks(p, rs) {
			if s.target != nil && sortedAfter(p, stack, rs, s.target) {
				continue
			}
			out = append(out, l.finding(s.pos, "R1",
				"range over map %s: %s depends on map iteration order; iterate over sorted keys",
				exprString(rs.X), s.what))
		}
		return true
	})
	return out
}

// sink is one order-sensitive operation inside a map-range body.
type sink struct {
	pos    token.Pos
	what   string
	target types.Object // appended-to slice, when the sink is an append
}

func mapRangeSinks(p *lintPkg, rs *ast.RangeStmt) []sink {
	var sinks []sink
	outside := func(e ast.Expr) types.Object {
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		obj := p.info.ObjectOf(id)
		if obj == nil || obj.Pos() == token.NoPos {
			return nil
		}
		if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
			return nil // declared inside the loop: per-iteration state
		}
		return obj
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if obj := outside(n.Chan); obj != nil {
				sinks = append(sinks, sink{pos: n.Pos(), what: fmt.Sprintf("send on channel %q", obj.Name())})
			}
		case *ast.CallExpr:
			if isBuiltin(p.info, n.Fun, "append") && len(n.Args) > 0 {
				if obj := outside(n.Args[0]); obj != nil {
					sinks = append(sinks, sink{
						pos:    n.Pos(),
						what:   fmt.Sprintf("append to slice %q declared outside the loop", obj.Name()),
						target: obj,
					})
				}
				return true
			}
			fn := calleeFunc(p.info, n)
			if fn == nil {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
				sinks = append(sinks, sink{pos: n.Pos(), what: "call to fmt." + fn.Name() + " writes ordered output"})
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				switch fn.Name() {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
						if obj := outside(sel.X); obj != nil {
							sinks = append(sinks, sink{pos: n.Pos(),
								what: fmt.Sprintf("%s on %q writes ordered output", fn.Name(), obj.Name())})
						}
					}
				}
			}
		}
		return true
	})
	return sinks
}

// sortedAfter recognizes the sorted-keys idiom: the slice fed by the range
// is passed to a sort.* or slices.* call later in the same enclosing block.
func sortedAfter(p *lintPkg, stack []ast.Node, rs *ast.RangeStmt, target types.Object) bool {
	var block []ast.Stmt
	for i := len(stack) - 2; i >= 0; i-- {
		switch b := stack[i].(type) {
		case *ast.BlockStmt:
			block = b.List
		case *ast.CaseClause:
			block = b.Body
		case *ast.CommClause:
			block = b.Body
		default:
			continue
		}
		break
	}
	idx := -1
	for i, s := range block {
		if s == ast.Stmt(rs) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, s := range block[idx+1:] {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := calleeFunc(p.info, call)
		if fn == nil || fn.Pkg() == nil {
			continue
		}
		if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
			continue
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil && p.info.ObjectOf(id) == target {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// R10 (per-file half) — no context.Background / context.TODO in library
// code.
//
// Library packages receive their context from the caller; minting a fresh
// background context severs the cancellation chain at that point, which is
// exactly how a Solve deadline stops being enforceable three frames down.
// One idiom is exempt: the nil-context defaulting guard at a public
// boundary (`if ctx == nil { ctx = context.Background() }` — the Solve
// entry points accept nil for convenience).

func lintBackgroundContext(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var stack []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() != "Background" && fn.Name() != "TODO" {
				return true
			}
			if insideNilContextGuard(p, stack) {
				return true
			}
			out = append(out, l.finding(call.Pos(), "R10",
				"context.%s in library package %s severs the cancellation chain: thread the caller's context instead", fn.Name(), p.path))
			return true
		})
	}
	return out
}

// insideNilContextGuard reports whether the node at the top of stack lies
// inside an if statement whose condition tests a context.Context expression
// against nil — the defaulting idiom at nil-tolerant public boundaries.
func insideNilContextGuard(p *lintPkg, stack []ast.Node) bool {
	isContext := func(e ast.Expr) bool {
		t := p.info.TypeOf(e)
		if t == nil {
			return false
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
	}
	for i := len(stack) - 1; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		cond, ok := ifStmt.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			continue
		}
		if isNilIdent(cond.Y) && isContext(cond.X) {
			return true
		}
		if isNilIdent(cond.X) && isContext(cond.Y) {
			return true
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// ---------------------------------------------------------------------------
// R11 — goroutine hygiene.
//
// Outside the worker pool, a `go` statement must be provably joined in the
// function that spawns it: the goroutine signals a sync.WaitGroup the
// function Waits on, or sends on / closes a channel the function receives
// from. Anything else is a potential leak — the chaos suite's
// goroutine-leak checks only stay meaningful if spawn sites are joined by
// construction, and a leaked scatter goroutine under wdptd load is a slow
// memory death. Fan-out belongs on par.Pool (which is exempt, and whose
// helpers are joined by its own WaitGroup).

func lintGoroutineJoin(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goroutineJoined(p, fd, gs) {
				return true
			}
			out = append(out, l.finding(gs.Pos(), "R11",
				"goroutine is not provably joined in %s (no WaitGroup Wait, no receive from a channel it signals): leaked goroutines outlive their query — fan out on par.Pool or join before returning", fd.Name.Name))
			return true
		})
	}
	return out
}

// goroutineJoined recognizes the two join protocols: WaitGroup (goroutine
// calls Done on a WaitGroup the function Waits on) and channel (goroutine
// sends on or closes a channel the function receives from or ranges over).
// Matching is by printed expression of the synchronization target, so
// "s.inflight" and "wg" both work.
func goroutineJoined(p *lintPkg, fd *ast.FuncDecl, gs *ast.GoStmt) bool {
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false // goroutine body is out of sight: not provable here
	}
	signals := make(map[string]bool) // exprs the goroutine Done()s, sends on, or closes
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			signals[exprString(n.Chan)] = true
		case *ast.CallExpr:
			if isBuiltin(p.info, n.Fun, "close") && len(n.Args) == 1 {
				signals[exprString(n.Args[0])] = true
			}
			if fn := calleeFunc(p.info, n); fn != nil && fn.Name() == "Done" && isWaitGroupMethod(fn) {
				if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
					signals[exprString(sel.X)] = true
				}
			}
		}
		return true
	})
	if len(signals) == 0 {
		return false
	}
	joined := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			if n == gs {
				return false // the goroutine's own body does not join itself
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && signals[exprString(n.X)] {
				joined = true
			}
		case *ast.RangeStmt:
			if t := p.info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && signals[exprString(n.X)] {
					joined = true
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(p.info, n); fn != nil && fn.Name() == "Wait" && isWaitGroupMethod(fn) {
				if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && signals[exprString(sel.X)] {
					joined = true
				}
			}
		}
		return true
	})
	return joined
}

func isWaitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// ---------------------------------------------------------------------------
// R15 — ID-native hot paths in the evaluation kernels.
//
// The storage redesign (docs/STORAGE.md) moved the kernels in
// internal/cqeval and internal/core to dictionary-encoded uint32 rows;
// strings exist only at the load and report boundaries. This rule keeps
// string work from leaking back into the kernels: probing a map[string]-keyed
// table inside a loop with a key *built* per iteration (string
// concatenation, fmt.Sprintf, strings.Join, or a db/cq Key()-style
// canonical-string method) allocates one string per row; the sanctioned
// idiom is a packed []uint32 key reused through m[string(buf)], which the
// compiler keeps allocation-free.

// hotPathPkg reports whether R15 applies: the two evaluation-kernel
// packages whose inner loops the paper's polynomial bounds live in.
func hotPathPkg(rel string) bool {
	return rel == "internal/cqeval" || rel == "internal/core"
}

func lintHotPathKeys(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	loopDepth := 0
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth--
			}
			return true
		}
		stack = append(stack, n)
		switch v := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
		case *ast.IndexExpr:
			if loopDepth == 0 {
				break
			}
			t := p.info.TypeOf(v.X)
			if t == nil {
				break
			}
			m, ok := t.Underlying().(*types.Map)
			if !ok || !isStringType(m.Key()) {
				break
			}
			if pos := stringKeyConstruction(l, p, v.Index); pos.IsValid() {
				out = append(out, l.finding(pos, "R15",
					"map[string] probe in a loop with a per-iteration string key: pack IDs with db.AppendRowKey into a reused []byte and probe m[string(buf)] instead"))
			}
		}
		return true
	})
	return out
}

// stringKeyConstruction returns the position of the first per-iteration
// string-key build inside a map-probe key expression: a string
// concatenation, a fmt.Sprintf / strings.Join call, or a call to a
// canonical-string Key method of the db or cq packages. The packed-key
// idiom string(buf) contains none of these and stays silent.
func stringKeyConstruction(l *loader, p *lintPkg, key ast.Expr) token.Pos {
	found := token.NoPos
	ast.Inspect(key, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		switch v := n.(type) {
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isStringType(p.info.TypeOf(v)) {
				found = v.Pos()
			}
		case *ast.CallExpr:
			fn := calleeFunc(p.info, v)
			if fn == nil || fn.Pkg() == nil {
				break
			}
			path := fn.Pkg().Path()
			switch {
			case path == "fmt" && fn.Name() == "Sprintf",
				path == "strings" && fn.Name() == "Join":
				found = v.Pos()
			case strings.EqualFold(fn.Name(), "key") &&
				(l.relOf(path) == "internal/db" || l.relOf(path) == "internal/cq"):
				found = v.Pos()
			}
		}
		return true
	})
	return found
}

// isStringType reports whether t is (an alias of) the basic string type.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers.

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// rootIdent returns the leftmost identifier of an lvalue-ish expression:
// b in &b, s.rows, m[k], (*p).field.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// calleeFunc resolves the called function or method, or nil for builtins,
// type conversions, and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(v.X)
	}
	return "expression"
}
