// Command wdptlint is the project-specific static-analysis gate. It enforces
// the determinism and hygiene rules that back the reproduction's claims (see
// docs/STATIC_ANALYSIS.md for rationale):
//
//	R1  map-order determinism: a range over a map must not feed ordered
//	    output (slice appends, writers) unless the keys are sorted first
//	R2  no panics or log.Fatal in library packages (internal/*)
//	R3  no unchecked error returns in library packages (internal/*)
//	R4  no fmt.Print* / os.Stdout outside cmd/ and examples/
//	R5  exported identifiers in the root package, internal/core, and
//	    internal/cq require doc comments
//	R6  every counter registered in internal/obs (the counterNames literal)
//	    must be documented in the docs/OBSERVABILITY.md glossary
//	R8  error-chain preservation: in internal/*, a fmt.Errorf whose
//	    arguments include an error must wrap it with %w (or the code
//	    returns a guard sentinel directly), so errors crossing a package
//	    boundary stay errors.Is-matchable
//	R9  every http.Server literal must set ReadHeaderTimeout, and the
//	    package-level http.ListenAndServe helpers (which construct a
//	    server with no timeouts) are forbidden
//	R14 metric-name registry hygiene: every name in the internal/obs
//	    registries (counterNames, histNames, gaugeNames,
//	    runtimeMetricNames) is snake_case, globally unique, and — for the
//	    exposition-facing registries — documented in the
//	    docs/OBSERVABILITY.md glossary
//	R15 ID-native kernels: internal/cqeval and internal/core must not
//	    build per-iteration string map keys in loops or compare db.Tuple
//	    components in loops — hot paths work on dictionary term IDs (see
//	    docs/STORAGE.md)
//	R16 crash-safe persistence: inside internal/db and its subpackages,
//	    the raw file-mutation primitives os.Create, os.WriteFile, and
//	    os.Rename are forbidden outside the sanctioned crash-safe writer
//	    (internal/db/snapshot/atomic.go) — durable state must go through
//	    temp file + fsync + atomic rename (see docs/ROBUSTNESS.md)
//	R17 timeout-bounded outbound HTTP: in the peer-dialing packages
//	    (internal/cluster and its subpackages, internal/server/client),
//	    the package-level http.Get/Head/Post/PostForm helpers,
//	    http.DefaultClient, and http.Client literals without a Timeout
//	    are forbidden — a hung peer must not pin a scatter leg, health
//	    probe, or failover walk forever (see docs/CLUSTER.md)
//
// R10-R13 are whole-program rules: they run over a type-resolved
// cross-package call graph of the full loaded closure (see graphrules.go
// and docs/STATIC_ANALYSIS.md):
//
//	R10 context propagation: internal/* code must not mint
//	    context.Background()/TODO() (outside the nil-defaulting guard at
//	    public boundaries), and a function that transitively reaches a
//	    cancellable sink (par fan-out, guard meter, db index scan,
//	    net/http) must accept a context/meter/pool or a carrier type
//	R11 goroutine hygiene: a go statement outside internal/par must be
//	    provably joined in its function (WaitGroup Wait or a receive from
//	    a channel the goroutine signals)
//	R12 determinism taint: values derived from time.Now, global math/rand,
//	    or unsorted map iteration must not flow — through any number of
//	    calls — into internal/report, internal/cq, or internal/harness;
//	    internal/obs and internal/guard are whitelisted at the source
//	R13 budget-metering coverage: tuple loops in internal/cqeval and
//	    internal/core must reach the guard meter
//
// Findings print as "file:line: [rule] message" and make the tool exit 1.
// A finding is suppressed by a directive on the same line or the line above:
//
//	//lint:ignore R1 reason why the unordered iteration is safe
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
//	wdptlint [-rules R1,R2] [-json] [./... | ./pkg/dir ...]
//	wdptlint -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdptlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesFlag := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	listFlag := fs.Bool("list", false, "list the implemented rules and exit")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, r := range allRules {
			fmt.Fprintf(stdout, "%-4s %s\n", r.id, r.synopsis)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	enabled, err := parseRules(*rulesFlag)
	if err != nil {
		fmt.Fprintf(stderr, "wdptlint: %v\n", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "wdptlint: %v\n", err)
		return 2
	}
	findings, timing, err := lintTimed(cwd, patterns, enabled)
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

// ruleSpec names one rule for -list.
type ruleSpec struct {
	id       string
	synopsis string
}

// allRules lists every implemented rule in report order.
var allRules = []ruleSpec{
	{"R1", "map-order determinism: no range over a map feeding an ordered sink without sorting"},
	{"R2", "no panic / log.Fatal / os.Exit in library packages"},
	{"R3", "no unchecked error returns in internal/*"},
	{"R4", "no fmt.Print* / os.Stdout outside cmd/ and examples/"},
	{"R5", "exported identifiers in the façade, internal/core, internal/cq need doc comments"},
	{"R6", "every internal/obs counter is documented in docs/OBSERVABILITY.md"},
	{"R8", "fmt.Errorf with an error argument in internal/* must wrap with %w"},
	{"R9", "http.Server must set ReadHeaderTimeout; no naked ListenAndServe"},
	{"R10", "whole-program: internal/* reaching a cancellable sink must thread ctx/meter/pool; no context.Background in library code"},
	{"R11", "go statements outside internal/par must be provably joined (WaitGroup/channel)"},
	{"R12", "whole-program: time.Now / global rand / unsorted map order must not flow into report, cq, or harness"},
	{"R13", "whole-program: tuple loops in cqeval/core must reach the guard meter"},
	{"R14", "internal/obs metric-name registries: snake_case, unique, exposition names documented in the glossary"},
	{"R15", "cqeval/core kernels stay ID-native: no per-row string map keys or Tuple string comparisons in loops"},
	{"R16", "internal/db must not call os.Create/os.WriteFile/os.Rename outside the crash-safe snapshot writer"},
	{"R17", "outbound HTTP in cluster/client packages: no http.Get-style helpers, no http.DefaultClient, every http.Client literal sets Timeout"},
}

func parseRules(s string) (map[string]bool, error) {
	known := make(map[string]bool, len(allRules))
	for _, r := range allRules {
		known[r.id] = true
	}
	enabled := make(map[string]bool, len(allRules))
	if strings.TrimSpace(s) == "" {
		for _, r := range allRules {
			enabled[r.id] = true
		}
		return enabled, nil
	}
	var ids []string
	for _, r := range allRules {
		ids = append(ids, r.id)
	}
	for _, r := range strings.Split(s, ",") {
		r = strings.TrimSpace(r)
		if !known[r] {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", r, strings.Join(ids, ", "))
		}
		enabled[r] = true
	}
	return enabled, nil
}

// Lint loads the packages selected by patterns (resolved relative to dir,
// which must lie inside a module) and returns the unsuppressed findings,
// sorted by file, line, and rule.
func Lint(dir string, patterns []string, enabled map[string]bool) ([]Finding, error) {
	findings, _, err := lintTimed(dir, patterns, enabled)
	return findings, err
}

// lintTimed is Lint plus the loader's timing profile.
func lintTimed(dir string, patterns []string, enabled map[string]bool) ([]Finding, LoadTiming, error) {
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
		findings = append(findings, lintPackage(l, p, enabled)...)
	}
	findings = append(findings, lintWholeProgram(l, pkgs, enabled)...)
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
