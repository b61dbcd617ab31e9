package main

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// A finding is suppressed by a directive comment either trailing the flagged
// line or on the line immediately above it:
//
//	//lint:ignore R1 iteration order is irrelevant: results feed a set
//
// The directive names one rule or a comma-separated list of rules and must
// give a non-empty reason; a directive without a reason suppresses nothing.
// A directive naming a rule outside knownRules is reported (rule "ignore"),
// so retiring a rule cannot leave dead directives behind without a trace.
//
// Directives are indexed globally at parse time (loader.suppress), so R10's
// call-graph findings — produced far from any single file walk — honor them
// exactly like the per-file rules do.

const ignorePrefix = "//lint:ignore "

// knownRules are the rule IDs a directive may name.
var knownRules = map[string]bool{"R1": true, "R10": true, "R11": true, "R15": true}

// parseDirective splits a lint:ignore comment into the rules it names and
// whether it gives a reason; any other comment names no rules.
func parseDirective(text string) (rules []string, reasoned bool) {
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	fields := strings.Fields(rest)
	if !ok || len(fields) == 0 {
		return nil, false
	}
	return strings.Split(fields[0], ","), len(fields) > 1
}

// indexSuppressionsLocked records f's lint:ignore directives in the global
// index. Called with l.mu held (from parsePackage).
func (l *loader) indexSuppressionsLocked(f *ast.File) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			rules, reasoned := parseDirective(c.Text)
			if !reasoned {
				continue // not a directive, or no reason given: inert
			}
			position := l.fset.Position(c.Pos())
			file := position.Filename
			if rel, err := filepath.Rel(l.root, file); err == nil {
				file = filepath.ToSlash(rel)
			}
			byLine := l.suppress[file]
			if byLine == nil {
				byLine = make(map[int][]string)
				l.suppress[file] = byLine
			}
			byLine[position.Line] = append(byLine[position.Line], rules...)
		}
	}
}

// lintDirectives reports every lint:ignore directive in f that names a rule
// wdptlint does not implement: such a directive suppresses nothing.
func lintDirectives(l *loader, f *ast.File) []Finding {
	var out []Finding
	for _, group := range f.Comments {
		for _, c := range group.List {
			rules, _ := parseDirective(c.Text)
			for _, r := range rules {
				if !knownRules[r] {
					out = append(out, l.finding(c.Pos(), "ignore",
						"lint:ignore names %q, which wdptlint does not implement: the directive suppresses nothing", r))
				}
			}
		}
	}
	return out
}

// suppressed reports whether a finding for rule at file:line is covered by
// a directive on that line or the line above.
func (l *loader) suppressed(file string, line int, rule string) bool {
	byLine := l.suppress[file]
	if byLine == nil {
		return false
	}
	for _, at := range []int{line, line - 1} {
		for _, r := range byLine[at] {
			if r == rule {
				return true
			}
		}
	}
	return false
}

// applySuppressions drops the findings covered by a lint:ignore directive.
// A dead directive's own finding is never suppressible.
func (l *loader) applySuppressions(findings []Finding) []Finding {
	out := findings[:0]
	for _, fd := range findings {
		if fd.Rule != "ignore" && l.suppressed(fd.File, fd.Line, fd.Rule) {
			continue
		}
		out = append(out, fd)
	}
	return out
}
