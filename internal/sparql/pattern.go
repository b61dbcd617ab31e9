package sparql

import (
	"fmt"
	"sort"
	"strings"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/db"
)

// Expr is an {AND, OPT} pattern expression (Section 1, query (1) style).
type Expr interface {
	// String renders the expression in the algebraic notation.
	String() string
	vars(set map[string]bool)
}

// AtomExpr is a leaf pattern: a relational atom or triple pattern.
type AtomExpr struct{ Atom cq.Atom }

// AndExpr is the conjunction P1 AND P2.
type AndExpr struct{ L, R Expr }

// OptExpr is the optional match P1 OPT P2.
type OptExpr struct{ L, R Expr }

func (e *AtomExpr) String() string { return e.Atom.String() }
func (e *AndExpr) String() string  { return fmt.Sprintf("(%s AND %s)", e.L, e.R) }
func (e *OptExpr) String() string  { return fmt.Sprintf("(%s OPT %s)", e.L, e.R) }

func (e *AtomExpr) vars(set map[string]bool) {
	for _, v := range e.Atom.Vars() {
		set[v] = true
	}
}
func (e *AndExpr) vars(set map[string]bool) { e.L.vars(set); e.R.vars(set) }
func (e *OptExpr) vars(set map[string]bool) { e.L.vars(set); e.R.vars(set) }

// Vars returns the variables of the expression.
func Vars(e Expr) []string {
	set := make(map[string]bool)
	e.vars(set)
	var out []string
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// IsWellDesigned checks the condition of Pérez et al. [18]: for every
// subexpression (P1 OPT P2) of e, every variable occurring inside P2 and
// somewhere in e outside the subexpression also occurs in P1. It returns a
// descriptive error naming the offending variable otherwise.
func IsWellDesigned(e Expr) error {
	return checkWD(e, e)
}

func checkWD(whole, e Expr) error {
	switch x := e.(type) {
	case *AtomExpr:
		return nil
	case *AndExpr:
		if err := checkWD(whole, x.L); err != nil {
			return err
		}
		return checkWD(whole, x.R)
	case *OptExpr:
		inner := make(map[string]bool)
		x.R.vars(inner)
		left := make(map[string]bool)
		x.L.vars(left)
		outside := make(map[string]bool)
		collectOutside(whole, x, outside)
		for v := range inner {
			if outside[v] && !left[v] {
				return fmt.Errorf("sparql: not well-designed: variable ?%s occurs in the optional part of %s and outside it, but not in its mandatory part", v, x)
			}
		}
		if err := checkWD(whole, x.L); err != nil {
			return err
		}
		return checkWD(whole, x.R)
	}
	return fmt.Errorf("sparql: unknown expression %T", e)
}

// collectOutside gathers the variables of whole occurring outside the
// subexpression sub (compared by identity of the OptExpr value).
func collectOutside(whole Expr, sub *OptExpr, out map[string]bool) {
	switch x := whole.(type) {
	case *AtomExpr:
		x.vars(out)
	case *AndExpr:
		collectOutside(x.L, sub, out)
		collectOutside(x.R, sub, out)
	case *OptExpr:
		if x == sub {
			return
		}
		collectOutside(x.L, sub, out)
		collectOutside(x.R, sub, out)
	}
}

// OptNormalForm rewrites a well-designed expression so that no OPT occurs
// inside an AND, using the equivalences (valid for well-designed patterns,
// [18]): ((A OPT B) AND C) ≡ ((A AND C) OPT B) and
// (A AND (B OPT C)) ≡ ((A AND B) OPT C).
func OptNormalForm(e Expr) Expr {
	switch x := e.(type) {
	case *AtomExpr:
		return x
	case *OptExpr:
		return &OptExpr{L: OptNormalForm(x.L), R: OptNormalForm(x.R)}
	case *AndExpr:
		l := OptNormalForm(x.L)
		r := OptNormalForm(x.R)
		return andCombine(l, r)
	}
	// exhaustive type switch over the sealed Expr interface
	panic(fmt.Sprintf("sparql: unknown expression %T", e))
}

func andCombine(l, r Expr) Expr {
	if lo, ok := l.(*OptExpr); ok {
		return &OptExpr{L: andCombine(lo.L, r), R: lo.R}
	}
	if ro, ok := r.(*OptExpr); ok {
		return &OptExpr{L: andCombine(l, ro.L), R: ro.R}
	}
	return &AndExpr{L: l, R: r}
}

// ToWDPT converts a well-designed pattern expression (with the given free
// variables; nil means projection-free) into a pattern tree, via OPT normal
// form. The construction mirrors [17]: the pure-AND part of the normal form
// labels a node, each top-level OPT hangs a child subtree.
func ToWDPT(e Expr, free []string) (*core.PatternTree, error) {
	if err := IsWellDesigned(e); err != nil {
		return nil, err
	}
	norm := OptNormalForm(e)
	spec := buildSpec(norm)
	if free == nil {
		free = Vars(e)
	}
	return core.New(spec, free)
}

func buildSpec(e Expr) core.NodeSpec {
	switch x := e.(type) {
	case *AtomExpr:
		return core.NodeSpec{Atoms: []cq.Atom{x.Atom}}
	case *AndExpr:
		l, r := buildSpec(x.L), buildSpec(x.R)
		return core.NodeSpec{
			Atoms:    append(append([]cq.Atom(nil), l.Atoms...), r.Atoms...),
			Children: append(append([]core.NodeSpec(nil), l.Children...), r.Children...),
		}
	case *OptExpr:
		l := buildSpec(x.L)
		l.Children = append(l.Children, buildSpec(x.R))
		return l
	}
	// exhaustive type switch over the sealed Expr interface
	panic(fmt.Sprintf("sparql: unknown expression %T", e))
}

// FromWDPT renders a pattern tree back as an algebraic expression: node
// atoms joined by AND, children attached by OPT (children after their
// parent's conjunction, depth-first).
func FromWDPT(p *core.PatternTree) Expr {
	var build func(n *core.Node) Expr
	build = func(n *core.Node) Expr {
		var e Expr
		for _, a := range n.Atoms() {
			if e == nil {
				e = &AtomExpr{Atom: a}
			} else {
				e = &AndExpr{L: e, R: &AtomExpr{Atom: a}}
			}
		}
		if e == nil {
			// An empty label is not expressible as a pattern; use a
			// vacuous marker that parses back.
			e = &AtomExpr{Atom: cq.NewAtom("true")}
		}
		for _, c := range n.Children() {
			e = &OptExpr{L: e, R: build(c)}
		}
		return e
	}
	return build(p.Root())
}

// Format renders a pattern tree in the ANS(...) { ... } text format
// accepted by ParseWDPT.
func Format(p *core.PatternTree) string {
	var b strings.Builder
	b.WriteString("ANS(")
	for i, x := range p.Free() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("?" + x)
	}
	b.WriteString(")\n")
	var walk func(n *core.Node, indent string)
	walk = func(n *core.Node, indent string) {
		b.WriteString(indent + "{")
		for i, a := range n.Atoms() {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" " + formatAtom(a))
		}
		if len(n.Children()) == 0 {
			b.WriteString(" }\n")
			return
		}
		b.WriteString("\n")
		for _, c := range n.Children() {
			walk(c, indent+"  ")
		}
		b.WriteString(indent + "}\n")
	}
	walk(p.Root(), "")
	return b.String()
}

// formatAtom renders an atom so that ParseWDPT can read it back: constants
// that are not bare identifiers are quoted with escapes.
func formatAtom(a cq.Atom) string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = formatTerm(t)
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

func formatTerm(t cq.Term) string {
	if t.IsVar() {
		return "?" + t.Value()
	}
	v := t.Value()
	bare := v != ""
	for _, r := range v {
		if !isIdentPart(r) {
			bare = false
			break
		}
	}
	if bare {
		return v
	}
	escaped := strings.ReplaceAll(v, `\`, `\\`)
	escaped = strings.ReplaceAll(escaped, `"`, `\"`)
	return `"` + escaped + `"`
}

// FormatDatabase renders a database in the line format accepted by
// ParseDatabase, quoting constants that are not bare identifiers. Round
// trips exactly: ParseDatabase(FormatDatabase(d)) equals d.
func FormatDatabase(d *db.Database) string {
	var b strings.Builder
	dict := d.Dict()
	for _, r := range d.Relations() {
		for i := 0; i < r.Len(); i++ {
			b.WriteString(r.Name())
			b.WriteByte('(')
			for pos, id := range r.Scan(i) {
				if pos > 0 {
					b.WriteString(", ")
				}
				b.WriteString(formatTerm(cq.C(dict.Term(id))))
			}
			b.WriteString(").\n")
		}
	}
	return b.String()
}
