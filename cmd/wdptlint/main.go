// Command wdptlint is the project-specific static-analysis gate. It keeps
// the four rules that guard live code no type or go vet check can reach (see
// docs/STATIC_ANALYSIS.md for the audit behind each verdict):
//
//	R1  map-order determinism: a range over a map must not feed ordered
//	    output (slice appends, writers) unless the keys are sorted first
//	R10 context propagation: internal/* code must not mint
//	    context.Background()/TODO() (outside the nil-defaulting guard at
//	    public boundaries), and a function that transitively reaches a
//	    cancellable sink (par fan-out, guard meter, db index scan,
//	    net/http) must accept a context/meter/pool or a carrier type
//	R11 goroutine hygiene: a go statement outside internal/par must be
//	    provably joined in its function (WaitGroup Wait or a receive from
//	    a channel the goroutine signals)
//	R15 ID-native kernels: internal/cqeval and internal/core must not
//	    build per-iteration string map keys in loops — hot paths work on
//	    dictionary term IDs (see docs/STORAGE.md)
//
// R10's second half runs over a type-resolved cross-package call graph of
// the full loaded closure (see graphrules.go).
//
// Findings print as "file:line: [rule] message" and make the tool exit 1.
// A finding is suppressed by a directive on the same line or the line above:
//
//	//lint:ignore R1 reason why the unordered iteration is safe
//
// A directive naming a rule the tool does not implement is itself a finding
// (rule "ignore"): it would otherwise suppress nothing without a trace.
//
// -json emits findings as a JSON array for CI annotation.
//
// The tool is built exclusively on the standard library (go/parser, go/types,
// go/importer); go.mod stays dependency-free. Packages are parsed and
// type-checked in parallel (dependency-ordered levels); the timing line on
// stderr is the gate's evidence that the parallel loader is active.
//
// Usage:
//
//	wdptlint [-json] [./... | ./pkg/dir ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdptlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "wdptlint: %v\n", err)
		return 2
	}
	findings, timing, err := lintTimed(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "wdptlint: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "wdptlint: %s\n", timing)

	if *jsonFlag {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "wdptlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "wdptlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// Lint loads the packages selected by patterns (resolved relative to dir,
// which must lie inside a module) and returns the unsuppressed findings,
// sorted by file, line, and rule.
func Lint(dir string, patterns []string) ([]Finding, error) {
	findings, _, err := lintTimed(dir, patterns)
	return findings, err
}

// lintTimed is Lint plus the loader's timing profile.
func lintTimed(dir string, patterns []string) ([]Finding, LoadTiming, error) {
	l, err := newLoader(dir)
	if err != nil {
		return nil, LoadTiming{}, err
	}
	pkgs, err := l.load(patterns)
	if err != nil {
		return nil, l.timing, err
	}
	var findings []Finding
	for _, p := range pkgs {
		findings = append(findings, lintPackage(l, p)...)
	}
	findings = append(findings, lintWholeProgram(l, pkgs)...)
	findings = l.applySuppressions(findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return findings, l.timing, nil
}

// Finding is one rule violation at a source position.
type Finding struct {
	File string `json:"file"` // path relative to the module root
	Line int    `json:"line"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}
