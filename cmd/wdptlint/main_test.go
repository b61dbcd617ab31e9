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

// TestFixtureFindings runs every rule over the fixture module and checks the
// findings against the // want markers: each rule fires where expected, the
// exempt idioms stay silent, and every suppression case is honored.
func TestFixtureFindings(t *testing.T) {
	enabled, err := parseRules("")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Lint(fixtureDir, []string{"./..."}, enabled)
	if err != nil {
		t.Fatal(err)
	}
	diffKeys(t, readMarkers(t), findingKeys(findings))
}

// TestRuleSubset checks that -rules style filtering runs only the selected
// rules.
func TestRuleSubset(t *testing.T) {
	enabled, err := parseRules("R2")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Lint(fixtureDir, []string{"./..."}, enabled)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for k, n := range readMarkers(t) {
		if strings.HasSuffix(k, ":R2") {
			want[k] = n
		}
	}
	diffKeys(t, want, findingKeys(findings))
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
	enabled, err := parseRules("")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Lint(fixtureDir, []string{"./..."}, enabled)
	if err != nil {
		t.Fatal(err)
	}
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
	t.Chdir(fixtureDir)
	var stdout, stderr bytes.Buffer

	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run(./...) = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	// The stderr timing line is the gate's evidence that the parallel loader
	// ran (CI greps for it).
	if !strings.Contains(stderr.String(), "loaded ") || !strings.Contains(stderr.String(), "parallelism ") {
		t.Errorf("stderr missing the loader timing line: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing the findings summary line: %s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	want := 0
	for _, n := range readMarkersFrom(t, ".") {
		want += n
	}
	if len(lines) != want {
		t.Fatalf("run printed %d findings, want %d:\n%s", len(lines), want, stdout.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, ": [R") {
			t.Errorf("malformed finding line %q", line)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./cmd/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(./cmd/...) = %d, want 0 (stdout: %s)", code, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean run printed findings: %s", stdout.String())
	}

	if code := run([]string{"-rules", "R99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-rules R99) = %d, want 2", code)
	}
}

// readMarkersFrom is readMarkers with an explicit root, for tests that chdir.
func readMarkersFrom(t *testing.T, dir string) map[string]int {
	t.Helper()
	want := make(map[string]int)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, marker, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, rule := range strings.Fields(marker) {
				want[fmt.Sprintf("%s:%d:%s", path, i+1, rule)]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading markers: %v", err)
	}
	return want
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
	t.Chdir(fixtureDir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run(-json ./...) = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var findings []Finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, stdout.String())
	}
	diffKeys(t, readMarkersFrom(t, "."), findingKeys(findings))
}

// TestBaselineRoundTrip exercises the baseline matcher directly: write/read
// round-trips, grandfathering ignores line drift, matching is a multiset,
// and fixed findings surface as stale entries.
func TestBaselineRoundTrip(t *testing.T) {
	findings := []Finding{
		{File: "a.go", Line: 3, Rule: "R1", Msg: "m"},
		{File: "a.go", Line: 9, Rule: "R1", Msg: "m"}, // duplicate key: multiset budget of 2
		{File: "b.go", Line: 1, Rule: "R2", Msg: "n"},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaselineFile(path, findings); err != nil {
		t.Fatal(err)
	}
	base, err := readBaselineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(findings) {
		t.Fatalf("round-trip: %d entries, want %d", len(base), len(findings))
	}

	if fresh, stale := applyBaseline(findings, base); len(fresh) != 0 || len(stale) != 0 {
		t.Errorf("identical findings: fresh=%v stale=%v, want none", fresh, stale)
	}
	// Line drift must not break the match: entries match on (file, rule, msg).
	moved := []Finding{
		{File: "a.go", Line: 30, Rule: "R1", Msg: "m"},
		{File: "a.go", Line: 90, Rule: "R1", Msg: "m"},
		{File: "b.go", Line: 5, Rule: "R2", Msg: "n"},
	}
	if fresh, stale := applyBaseline(moved, base); len(fresh) != 0 || len(stale) != 0 {
		t.Errorf("line drift: fresh=%v stale=%v, want none", fresh, stale)
	}
	// A third occurrence of a key budgeted twice is fresh.
	extra := append(moved[:len(moved):len(moved)], Finding{File: "a.go", Line: 99, Rule: "R1", Msg: "m"})
	if fresh, _ := applyBaseline(extra, base); len(fresh) != 1 || fresh[0].Line != 99 {
		t.Errorf("multiset overflow: fresh=%v, want the one extra occurrence", fresh)
	}
	// A brand-new finding is fresh.
	novel := append(moved[:len(moved):len(moved)], Finding{File: "c.go", Line: 2, Rule: "R3", Msg: "x"})
	if fresh, stale := applyBaseline(novel, base); len(fresh) != 1 || fresh[0].File != "c.go" || len(stale) != 0 {
		t.Errorf("new finding: fresh=%v stale=%v, want just c.go", fresh, stale)
	}
	// A fixed finding leaves its baseline entry stale — the ratchet.
	if fresh, stale := applyBaseline(moved[:2], base); len(fresh) != 0 || len(stale) != 1 || stale[0].File != "b.go" {
		t.Errorf("fixed finding: fresh=%v stale=%v, want one stale b.go entry", fresh, stale)
	}

	// A missing baseline file is an empty baseline, not an error.
	if entries, err := readBaselineFile(filepath.Join(t.TempDir(), "absent.json")); err != nil || entries != nil {
		t.Errorf("missing baseline: entries=%v err=%v, want nil/nil", entries, err)
	}
}

// TestBaselineRatchet drives the CLI ratchet end to end: record a baseline,
// verify the same tree is green against it, then verify both failure modes —
// stale entries (findings fixed but still listed) and fresh findings (new
// debt the baseline does not cover).
func TestBaselineRatchet(t *testing.T) {
	t.Chdir(fixtureDir)
	full := filepath.Join(t.TempDir(), "full.json")
	subset := filepath.Join(t.TempDir(), "subset.json")
	var stdout, stderr bytes.Buffer

	if code := run([]string{"-baseline", full, "-write-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", full, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("grandfathered run = %d, want 0 (stdout: %s stderr: %s)", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("grandfathered run printed findings:\n%s", stdout.String())
	}

	// Ratchet: with only R2 firing, every non-R2 baseline entry is stale.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-rules", "R2", "-baseline", full, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("stale-baseline run = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "stale baseline entry") {
		t.Errorf("stale run stderr missing stale-entry report: %s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stale run printed fresh findings:\n%s", stdout.String())
	}

	// New debt: a baseline recorded under R2 only does not grandfather the
	// other rules' findings.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-rules", "R2", "-baseline", subset, "-write-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("subset write-baseline = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", subset, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("fresh-findings run = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "[R1]") {
		t.Errorf("fresh-findings run should report non-R2 findings:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), "[R2]") {
		t.Errorf("fresh-findings run should grandfather the R2 findings:\n%s", stdout.String())
	}
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
