package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Package-role predicates: the rules distinguish binaries (cmd/, examples/),
// which own the process and its standard streams, from library packages
// (everything else), which must stay silent, panic-free, and error-checked.

func isBinaryPkg(rel string) bool {
	return rel == "cmd" || rel == "examples" ||
		strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")
}

func isInternalPkg(rel string) bool {
	return rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// docRequiredPkg reports whether R5 applies: the public façade and the two
// packages whose exported surface mirrors the paper's definitions.
func docRequiredPkg(rel string) bool {
	return rel == "." || rel == "internal/core" || rel == "internal/cq"
}

// counterRegistryPkg reports whether R6 applies: the observability package
// holding the counter registry.
func counterRegistryPkg(rel string) bool {
	return rel == "internal/obs"
}

// lintPackage runs the enabled per-file rules over one package and returns
// the findings (suppressions are applied centrally by Lint, so whole-program
// findings get the same treatment).
func lintPackage(l *loader, p *lintPkg, enabled map[string]bool) []Finding {
	var out []Finding
	for _, f := range p.files {
		if enabled["R1"] {
			out = append(out, lintMapOrder(l, p, f)...)
		}
		if enabled["R2"] && !isBinaryPkg(p.rel) {
			out = append(out, lintNoPanic(l, p, f)...)
		}
		if enabled["R3"] && isInternalPkg(p.rel) {
			out = append(out, lintUncheckedErrors(l, p, f)...)
		}
		if enabled["R4"] && !isBinaryPkg(p.rel) {
			out = append(out, lintNoStdout(l, p, f)...)
		}
		if enabled["R5"] && docRequiredPkg(p.rel) {
			out = append(out, lintDocComments(l, p, f)...)
		}
		if enabled["R6"] && counterRegistryPkg(p.rel) {
			out = append(out, lintCounterGlossary(l, f)...)
		}
		if enabled["R8"] && isInternalPkg(p.rel) {
			out = append(out, lintErrorWrapping(l, p, f)...)
		}
		if enabled["R9"] {
			out = append(out, lintHTTPServer(l, p, f)...)
		}
		if enabled["R10"] && isInternalPkg(p.rel) {
			out = append(out, lintBackgroundContext(l, p, f)...)
		}
		if enabled["R11"] && p.rel != "internal/par" {
			out = append(out, lintGoroutineJoin(l, p, f)...)
		}
		if enabled["R15"] && hotPathPkg(p.rel) {
			out = append(out, lintHotPathKeys(l, p, f)...)
		}
		if enabled["R16"] && persistencePkg(p.rel) {
			out = append(out, lintDurableWrites(l, p, f)...)
		}
		if enabled["R17"] && outboundHTTPPkg(p.rel) {
			out = append(out, lintOutboundHTTP(l, p, f)...)
		}
	}
	// R14 spans the registry variables of the whole package (uniqueness is
	// cross-file), so it runs once after the per-file rules.
	if enabled["R14"] && counterRegistryPkg(p.rel) {
		out = append(out, lintMetricRegistry(l, p)...)
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
// R2 — no panics in library packages.

func lintNoPanic(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(p.info, call.Fun, "panic") {
			out = append(out, l.finding(call.Pos(), "R2",
				"panic in library package %s: return an error instead", p.path))
			return true
		}
		if fn := calleeFunc(p.info, call); fn != nil {
			switch fn.FullName() {
			case "log.Fatal", "log.Fatalf", "log.Fatalln", "os.Exit":
				out = append(out, l.finding(call.Pos(), "R2",
					"%s in library package %s: return an error instead", fn.FullName(), p.path))
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// R3 — unchecked error returns in internal packages.
//
// A call whose result includes an error must not be used as a bare
// statement. Writes to error-free sinks (strings.Builder, bytes.Buffer —
// their Write methods are documented to always return a nil error) are
// exempt, including fmt.Fprint* directed at them.

func lintUncheckedErrors(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	check := func(call *ast.CallExpr, context string) {
		t := p.info.TypeOf(call)
		if t == nil || !typeHasError(t) || errCheckedSink(p, call) {
			return
		}
		name := "call"
		if fn := calleeFunc(p.info, call); fn != nil {
			name = fn.FullName()
		}
		out = append(out, l.finding(call.Pos(), "R3",
			"%s of %s discards its error result", context, name))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				check(call, "result")
			}
		case *ast.GoStmt:
			check(n.Call, "go statement")
		case *ast.DeferStmt:
			check(n.Call, "deferred call")
		}
		return true
	})
	return out
}

func typeHasError(t types.Type) bool {
	errType := types.Universe.Lookup("error").Type()
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errType)
}

func errCheckedSink(p *lintPkg, call *ast.CallExpr) bool {
	fn := calleeFunc(p.info, call)
	if fn == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return isErrFreeWriter(sig.Recv().Type())
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		// fmt.Print* goes to os.Stdout, whose placement R4 already polices;
		// double-reporting the conventionally ignored stdout error is noise.
		if strings.HasPrefix(fn.Name(), "Print") {
			return true
		}
		if strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
			if t := p.info.TypeOf(call.Args[0]); t != nil {
				return isErrFreeWriter(t)
			}
		}
	}
	return false
}

func isErrFreeWriter(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "strings.Builder" || full == "bytes.Buffer"
}

// ---------------------------------------------------------------------------
// R4 — no stdout writes outside binaries.

func lintNoStdout(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(p.info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				switch fn.Name() {
				case "Print", "Printf", "Println":
					out = append(out, l.finding(n.Pos(), "R4",
						"fmt.%s writes to os.Stdout from library package %s: take an io.Writer instead", fn.Name(), p.path))
				}
			}
		case *ast.SelectorExpr:
			if obj, ok := p.info.Uses[n.Sel].(*types.Var); ok &&
				obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "Stdout" {
				out = append(out, l.finding(n.Pos(), "R4",
					"os.Stdout used in library package %s: take an io.Writer instead", p.path))
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// R5 — doc comments on exported identifiers.

func lintDocComments(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			kind := "function"
			if d.Recv != nil {
				if !exportedReceiver(d) {
					continue
				}
				kind = "method"
			}
			out = append(out, l.finding(d.Name.Pos(), "R5",
				"exported %s %s lacks a doc comment", kind, d.Name.Name))
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			for _, spec := range d.Specs {
				var names []*ast.Ident
				var doc *ast.CommentGroup
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = []*ast.Ident{s.Name}
					doc = s.Doc
				case *ast.ValueSpec:
					names = s.Names
					doc = s.Doc
				}
				if doc != nil || d.Doc != nil {
					continue
				}
				for _, name := range names {
					if name.IsExported() {
						out = append(out, l.finding(name.Pos(), "R5",
							"exported %s %s lacks a doc comment", strings.ToLower(d.Tok.String()), name.Name))
					}
				}
			}
		}
	}
	return out
}

func exportedReceiver(d *ast.FuncDecl) bool {
	if len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// ---------------------------------------------------------------------------
// R6 — counter glossary completeness.
//
// internal/obs registers every engine counter name in its counterNames
// literal, and docs/OBSERVABILITY.md is the glossary anyone interpreting
// -stats output or a BENCH_*.json artifact reads. The rule pins the two
// together: every name registered in the literal must appear in the
// glossary, so a counter cannot be added (or renamed) without documenting
// what it measures.

const glossaryPath = "docs/OBSERVABILITY.md"

func lintCounterGlossary(l *loader, f *ast.File) []Finding {
	var out []Finding
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if name.Name != "counterNames" || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.CompositeLit); ok {
					out = append(out, checkGlossary(l, lit)...)
				}
			}
		}
	}
	return out
}

func checkGlossary(l *loader, lit *ast.CompositeLit) []Finding {
	data, err := os.ReadFile(filepath.Join(l.root, filepath.FromSlash(glossaryPath)))
	if err != nil {
		return []Finding{l.finding(lit.Pos(), "R6",
			"counter registry has no readable glossary at %s: %v", glossaryPath, err)}
	}
	glossary := string(data)
	var out []Finding
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		bl, ok := val.(*ast.BasicLit)
		if !ok || bl.Kind != token.STRING {
			continue
		}
		name, err := strconv.Unquote(bl.Value)
		if err != nil || name == "" {
			continue
		}
		if !strings.Contains(glossary, name) {
			out = append(out, l.finding(bl.Pos(), "R6",
				"counter %q is not documented in %s", name, glossaryPath))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// R14 — metric-name registry hygiene.
//
// internal/obs carries every observable name in a handful of registry
// variables: counterNames (engine counters, R6's glossary rule), histNames
// and gaugeNames (the Prometheus histogram/gauge families wdptd exposes),
// and runtimeMetricNames (the Go runtime gauges sampled on scrape). A name
// that escapes into a /metrics scrape or a BENCH artifact is an API: dashboards
// and benchdiff comparisons key on it. The rule pins three properties:
//
//   - shape: every dot-separated segment of every name is snake_case
//     ([a-z][a-z0-9_]*), so exposition mangling ("." -> "_") can never
//     produce an invalid or colliding Prometheus metric name;
//   - uniqueness: no name is registered twice across the registries;
//   - glossary: names in the exposition-facing registries (histNames,
//     gaugeNames, counterVecNames, runtimeMetricNames) are documented in
//     docs/OBSERVABILITY.md. counterNames' glossary containment is R6's
//     job and is not re-checked here.
//
// The checks are exclusive per name (a malformed or duplicate name is not
// also reported as undocumented), so each defect yields one finding.

// metricRegistryVars names the internal/obs registry variables R14 scans.
var metricRegistryVars = map[string]bool{
	"counterNames":       true,
	"histNames":          true,
	"gaugeNames":         true,
	"counterVecNames":    true,
	"runtimeMetricNames": true,
}

func lintMetricRegistry(l *loader, p *lintPkg) []Finding {
	glossary, glossaryErr := os.ReadFile(filepath.Join(l.root, filepath.FromSlash(glossaryPath)))
	var out []Finding
	firstSeen := make(map[string]string) // name -> registry var that registered it
	for _, f := range p.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, varName := range vs.Names {
					if !metricRegistryVars[varName.Name] || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					out = append(out, checkMetricRegistry(l, varName.Name, lit, firstSeen, string(glossary), glossaryErr)...)
				}
			}
		}
	}
	return out
}

// checkMetricRegistry validates the string elements of one registry literal.
func checkMetricRegistry(l *loader, varName string, lit *ast.CompositeLit, firstSeen map[string]string, glossary string, glossaryErr error) []Finding {
	var out []Finding
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		bl, ok := val.(*ast.BasicLit)
		if !ok || bl.Kind != token.STRING {
			continue
		}
		name, err := strconv.Unquote(bl.Value)
		if err != nil || name == "" {
			continue
		}
		if !snakeCaseMetric(name) {
			out = append(out, l.finding(bl.Pos(), "R14",
				"metric name %q in %s is not snake_case (every dot-separated segment must match [a-z][a-z0-9_]*)", name, varName))
			continue
		}
		if prev, dup := firstSeen[name]; dup {
			out = append(out, l.finding(bl.Pos(), "R14",
				"metric name %q in %s is already registered in %s: exposition names must be unique", name, varName, prev))
			continue
		}
		firstSeen[name] = varName
		if varName == "counterNames" {
			continue // R6 owns the counter glossary
		}
		if glossaryErr != nil {
			out = append(out, l.finding(bl.Pos(), "R14",
				"metric registry has no readable glossary at %s: %v", glossaryPath, glossaryErr))
			continue
		}
		if !strings.Contains(glossary, name) {
			out = append(out, l.finding(bl.Pos(), "R14",
				"metric %q is not documented in %s", name, glossaryPath))
		}
	}
	return out
}

// snakeCaseMetric reports whether every dot-separated segment of name
// matches [a-z][a-z0-9_]*.
func snakeCaseMetric(name string) bool {
	for _, seg := range strings.Split(name, ".") {
		if seg == "" {
			return false
		}
		for i, r := range seg {
			switch {
			case r >= 'a' && r <= 'z':
			case i > 0 && (r == '_' || (r >= '0' && r <= '9')):
			default:
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// R8 — error-chain preservation across internal package boundaries.
//
// The guard layer's typed errors (guard.ErrDeadline, guard.ErrTupleBudget,
// ...) are matched with errors.Is at the CLI and test layers, which only
// works if every intermediate layer wraps with %w instead of flattening the
// cause into text with %v or %s. The rule flags a fmt.Errorf call in an
// internal package whose arguments include an error-typed expression but
// whose format string has no %w verb: the chain is lost at that point.
// Errors built without embedding a cause (plain messages, formatted
// non-error values) and sentinels returned directly are untouched.

func lintErrorWrapping(l *loader, p *lintPkg, f *ast.File) []Finding {
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.info, call)
		if fn == nil || fn.FullName() != "fmt.Errorf" || len(call.Args) < 2 {
			return true
		}
		format, ok := unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || format.Kind != token.STRING {
			return true // dynamic format string: not analyzable
		}
		s, err := strconv.Unquote(format.Value)
		if err != nil || strings.Contains(s, "%w") {
			return true
		}
		for _, arg := range call.Args[1:] {
			t := p.info.TypeOf(arg)
			if t == nil || !types.Implements(t, errType) {
				continue
			}
			out = append(out, l.finding(call.Pos(), "R8",
				"fmt.Errorf flattens error argument %s without %%w: the cause is no longer errors.Is-matchable across the package boundary", exprString(arg)))
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// R9 — HTTP servers must bound header reads.
//
// wdptd serves untrusted network clients, and an http.Server with no
// ReadHeaderTimeout lets a client that trickles its request headers hold a
// connection (and its admission slot) forever — the classic Slowloris
// resource exhaustion. The rule flags every http.Server composite literal
// that does not set ReadHeaderTimeout, and every call to the package-level
// http.ListenAndServe / http.ListenAndServeTLS helpers, which construct an
// implicit server with no timeouts at all and offer no way to add one.
// Serving through a method on an explicitly constructed *http.Server is
// fine: the construction site is where the rule looks.

func lintHTTPServer(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := p.info.TypeOf(n)
			if t == nil || !isHTTPServerType(t) {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					// A positional literal fills every field, including
					// ReadHeaderTimeout.
					return true
				}
				if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "ReadHeaderTimeout" {
					return true
				}
			}
			out = append(out, l.finding(n.Pos(), "R9",
				"http.Server literal does not set ReadHeaderTimeout: a client trickling headers holds the connection forever"))
		case *ast.CallExpr:
			fn := calleeFunc(p.info, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // method on an explicitly constructed server
			}
			switch fn.Name() {
			case "ListenAndServe", "ListenAndServeTLS":
				out = append(out, l.finding(n.Pos(), "R9",
					"http.%s constructs a server with no timeouts; build an http.Server with ReadHeaderTimeout instead", fn.Name()))
			}
		}
		return true
	})
	return out
}

func isHTTPServerType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Server"
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
// string work from leaking back into the kernels:
//
//   - probing a map[string]-keyed table inside a loop with a key *built*
//     per iteration (string concatenation, fmt.Sprintf, strings.Join, or a
//     db/cq Key()-style canonical-string method) allocates one string per
//     row; the sanctioned idiom is a packed []uint32 key reused through
//     m[string(buf)], which the compiler keeps allocation-free;
//   - comparing db.Tuple components inside a loop is a per-row string
//     comparison where an ID comparison belongs.

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
		case *ast.BinaryExpr:
			if loopDepth == 0 || (v.Op != token.EQL && v.Op != token.NEQ) {
				break
			}
			if isTupleComponent(l, p, v.X) || isTupleComponent(l, p, v.Y) {
				out = append(out, l.finding(v.Pos(), "R15",
					"db.Tuple component comparison in a loop: compare dictionary term IDs, not strings"))
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

// isTupleComponent reports whether e indexes into a db.Tuple value.
func isTupleComponent(l *loader, p *lintPkg, e ast.Expr) bool {
	ie, ok := unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	named, ok := p.info.TypeOf(ie.X).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Tuple" && l.relOf(named.Obj().Pkg().Path()) == "internal/db"
}

// ---------------------------------------------------------------------------
// R17 — outbound HTTP must be timeout-bounded.
//
// The cluster coordinator and the typed API client are the packages that
// open connections to peers, and a peer that accepts the connection and
// then hangs must not pin the caller forever: scatter-gather legs, health
// probes, and failover walks all assume an exchange eventually returns.
// Request contexts carry the per-query deadline, but a context only exists
// once a request is built — the construction-site invariant is that every
// *http.Client in these packages carries a Timeout as the transport safety
// net (client.DefaultTimeout is the sanctioned value). The rule flags, in
// the outbound-HTTP packages only:
//
//   - the package-level net/http helpers (http.Get / Head / Post /
//     PostForm), which route through the timeout-less http.DefaultClient
//     and take no context at all;
//   - any other use of http.DefaultClient (it is shared, global, and has
//     no Timeout);
//   - an http.Client composite literal that does not set Timeout.
//
// Calls through a caller-provided *http.Client are exempt — construction
// sites are where the rule looks, mirroring R9's http.Server check.

// outboundHTTPPkg reports whether R17 applies: the packages that dial out
// to wdptd peers.
func outboundHTTPPkg(rel string) bool {
	return rel == "internal/cluster" || strings.HasPrefix(rel, "internal/cluster/") ||
		rel == "internal/server/client"
}

func lintOutboundHTTP(l *loader, p *lintPkg, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := p.info.TypeOf(n)
			if t == nil || !isHTTPClientType(t) {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					// A positional literal fills every field, including
					// Timeout.
					return true
				}
				if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Timeout" {
					return true
				}
			}
			out = append(out, l.finding(n.Pos(), "R17",
				"http.Client literal does not set Timeout: a hung peer pins the connection forever; set client.DefaultTimeout or bound every request with a context"))
		case *ast.CallExpr:
			fn := calleeFunc(p.info, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // method on an explicitly constructed client
			}
			switch fn.Name() {
			case "Get", "Head", "Post", "PostForm":
				out = append(out, l.finding(n.Pos(), "R17",
					"http.%s uses the timeout-less http.DefaultClient and carries no context: build the request with http.NewRequestWithContext and send it through a Timeout-bearing client", fn.Name()))
			}
		case *ast.SelectorExpr:
			if obj, ok := p.info.Uses[n.Sel].(*types.Var); ok &&
				obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "DefaultClient" {
				out = append(out, l.finding(n.Pos(), "R17",
					"http.DefaultClient has no Timeout: construct an http.Client with Timeout (client.DefaultTimeout) instead"))
			}
		}
		return true
	})
	return out
}

func isHTTPClientType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Client"
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

// ---------------------------------------------------------------------------
// R16 — crash-safe persistence in internal/db.
//
// The durable-snapshot subsystem (docs/ROBUSTNESS.md) owns every mutation of
// on-disk state: data is written to a temp file, fsynced, atomically renamed
// into place, and the directory is fsynced — so a crash at any instant
// leaves either the previous intact file or the new intact file, never a
// torn one. Raw os.Create / os.WriteFile / os.Rename calls elsewhere in
// internal/db would reintroduce exactly the torn-write window the writer
// exists to close, so the rule forbids them everywhere in the storage layer
// except the one sanctioned helper file.

// persistencePkg reports whether R16 applies: internal/db and everything
// under it (the storage layer that owns durable state).
func persistencePkg(rel string) bool {
	return rel == "internal/db" || strings.HasPrefix(rel, "internal/db/")
}

// crashSafeWriterFile is the one file sanctioned to call the raw os
// mutation primitives: the snapshot package's atomic writer.
const crashSafeWriterFile = "internal/db/snapshot/atomic.go"

func lintDurableWrites(l *loader, p *lintPkg, f *ast.File) []Finding {
	file := l.fset.Position(f.Package).Filename
	if rel, err := filepath.Rel(l.root, file); err == nil {
		file = filepath.ToSlash(rel)
	}
	if file == crashSafeWriterFile {
		return nil
	}
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		switch fn.Name() {
		case "Create", "WriteFile", "Rename":
			out = append(out, l.finding(call.Pos(), "R16",
				"os.%s in the storage layer: durable writes go through the crash-safe snapshot writer (temp file + fsync + atomic rename), not raw os mutations", fn.Name()))
		}
		return true
	})
	return out
}
