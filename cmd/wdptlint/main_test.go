package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture module under testdata/lintmod contains one package per rule,
// each with violations, exempt idioms, and suppression cases. Expected
// findings are declared in the fixtures themselves with trailing markers:
//
//	out = append(out, v) // want R1
//
// The marker lists every rule expected to fire on that line.
const fixtureDir = "testdata/lintmod"

// readMarkers collects the expected findings from the fixture sources as
// "file:line:rule" keys (file paths relative to the fixture module root).
func readMarkers(t *testing.T) map[string]int {
	t.Helper()
	want := make(map[string]int)
	err := filepath.WalkDir(fixtureDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(fixtureDir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			_, marker, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, rule := range strings.Fields(marker) {
				want[fmt.Sprintf("%s:%d:%s", rel, i+1, rule)]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading markers: %v", err)
	}
	return want
}

func findingKeys(findings []Finding) map[string]int {
	got := make(map[string]int)
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)]++
	}
	return got
}

func diffKeys(t *testing.T, want, got map[string]int) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("finding %s: want %d, got %d", k, want[k], got[k])
		}
	}
}

// The full fixture module is linted once per test binary, through the CLI
// entry point run with every rule and -json. The text path runs -rules R2
// over subsetPkgs, packages that also hold other rules' violations; those
// stay silent. The tests below share the two runs.

// cliRun is one captured invocation of run inside the fixture module.
type cliRun struct {
	once           sync.Once
	code           int
	stdout, stderr string
}

var (
	jsonRun    cliRun // run -json ./...
	subsetRun  cliRun // run -rules R2 subsetPkgs...
	subsetPkgs = []string{"internal/r2", "internal/r3", "internal/r4", "internal/cqeval"}
)

// lintSubset runs -rules R2 over subsetPkgs and returns the R2 markers
// those packages declare.
func lintSubset(t *testing.T) (*cliRun, map[string]int) {
	t.Helper()
	args := []string{"-rules", "R2"}
	for _, pkg := range subsetPkgs {
		args = append(args, "./"+pkg+"/...")
	}
	want := make(map[string]int)
	for k, n := range readMarkers(t) {
		for _, pkg := range subsetPkgs {
			if strings.HasPrefix(k, pkg+"/") && strings.HasSuffix(k, ":R2") {
				want[k] = n
			}
		}
	}
	return subsetRun.do(t, args...), want
}

// do runs args in the fixture module the first time and returns the
// captured result every time.
func (c *cliRun) do(t *testing.T, args ...string) *cliRun {
	t.Helper()
	c.once.Do(func() {
		back, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(fixtureDir); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.Chdir(back); err != nil {
				t.Fatal(err)
			}
		}()
		var stdout, stderr bytes.Buffer
		c.code = run(args, &stdout, &stderr)
		c.stdout, c.stderr = stdout.String(), stderr.String()
	})
	return c
}

// lintFixture returns every rule's findings over the fixture module, in
// report order, as printed by run -json.
func lintFixture(t *testing.T) []Finding {
	t.Helper()
	r := jsonRun.do(t, "-json", "./...")
	if r.code != 1 {
		t.Fatalf("run(-json ./...) = %d, want 1 (stderr: %s)", r.code, r.stderr)
	}
	var findings []Finding
	if err := json.Unmarshal([]byte(r.stdout), &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, r.stdout)
	}
	return findings
}

// TestFixtureFindings runs every rule over the fixture module and checks the
// findings against the // want markers: each rule fires where expected, the
// exempt idioms stay silent, and every suppression case is honored.
func TestFixtureFindings(t *testing.T) {
	diffKeys(t, readMarkers(t), findingKeys(lintFixture(t)))
}

// TestRuleSubset checks that -rules filtering runs only the selected rules:
// the text report of run -rules R2 holds exactly the R2 markers.
func TestRuleSubset(t *testing.T) {
	r, want := lintSubset(t)
	if len(want) == 0 {
		t.Fatal("subset packages declare no R2 markers")
	}
	got := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(r.stdout), "\n") {
		loc, rest, ok := strings.Cut(line, ": [")
		rule, _, ok2 := strings.Cut(rest, "] ")
		if !ok || !ok2 {
			t.Fatalf("malformed finding line %q", line)
		}
		got[loc+":"+rule]++
	}
	diffKeys(t, want, got)
}

// TestSinglePackagePattern checks non-recursive package patterns.
func TestSinglePackagePattern(t *testing.T) {
	enabled, err := parseRules("")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Lint(fixtureDir, []string{"./internal/r4"}, enabled)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for k, n := range readMarkers(t) {
		if strings.HasPrefix(k, "internal/r4/") {
			want[k] = n
		}
	}
	diffKeys(t, want, findingKeys(findings))
}

func TestParseRules(t *testing.T) {
	all, err := parseRules("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(allRules) {
		t.Fatalf("parseRules(\"\") enabled %d rules, want %d", len(all), len(allRules))
	}
	subset, err := parseRules("R1, R5")
	if err != nil {
		t.Fatal(err)
	}
	if !subset["R1"] || !subset["R5"] || subset["R2"] {
		t.Fatalf("parseRules(\"R1, R5\") = %v", subset)
	}
	if _, err := parseRules("R99"); err == nil {
		t.Fatal("parseRules(\"R99\") should fail")
	}
}

// TestFindingsSorted checks the report order: file, then line, then rule.
func TestFindingsSorted(t *testing.T) {
	findings := lintFixture(t)
	if !sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	}) {
		t.Errorf("findings not sorted: %v", findings)
	}
}

// TestRunExitCodes drives the CLI entry point: findings mean exit 1 with one
// "file:line: [rule] message" line per finding, a clean tree means exit 0,
// and bad flags mean exit 2.
func TestRunExitCodes(t *testing.T) {
	r, markers := lintSubset(t)
	if r.code != 1 {
		t.Fatalf("run(-rules R2 ...) = %d, want 1 (stderr: %s)", r.code, r.stderr)
	}
	// The stderr timing line is the gate's evidence that the parallel loader
	// ran (CI greps for it).
	if !strings.Contains(r.stderr, "loaded ") || !strings.Contains(r.stderr, "parallelism ") {
		t.Errorf("stderr missing the loader timing line: %s", r.stderr)
	}
	if !strings.Contains(r.stderr, "finding(s)") {
		t.Errorf("stderr missing the findings summary line: %s", r.stderr)
	}
	lines := strings.Split(strings.TrimSpace(r.stdout), "\n")
	want := 0
	for _, n := range markers {
		want += n
	}
	if len(lines) != want {
		t.Fatalf("run printed %d findings, want %d:\n%s", len(lines), want, r.stdout)
	}

	t.Chdir(fixtureDir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./cmd/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(./cmd/...) = %d, want 0 (stdout: %s)", code, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean run printed findings: %s", stdout.String())
	}

	for _, args := range [][]string{{"-rules", "R99"}, {"-rules", "R7"}, {"-baseline", "x"}} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestListRules checks -list: one line per implemented rule, in order.
func TestListRules(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(allRules) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(allRules), stdout.String())
	}
	for i, r := range allRules {
		if !strings.HasPrefix(lines[i], r.id) {
			t.Errorf("-list line %d = %q, want prefix %q", i, lines[i], r.id)
		}
	}
}

// TestJSONFindings checks -json: stdout is a JSON array holding exactly the
// marker findings, machine-readable for CI annotation.
func TestJSONFindings(t *testing.T) {
	findings := lintFixture(t)
	if len(findings) == 0 {
		t.Fatal("-json run reported no findings")
	}
	diffKeys(t, readMarkers(t), findingKeys(findings))
}

// TestSelfHost lints the linter's own package with every rule enabled:
// wdptlint must hold itself to the standard it enforces.
func TestSelfHost(t *testing.T) {
	if testing.Short() {
		t.Skip("self-hosting lint type-checks the real module closure")
	}
	enabled, err := parseRules("")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Lint(".", []string{"./cmd/wdptlint"}, enabled)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("self-hosting finding: %s", f)
	}
}
