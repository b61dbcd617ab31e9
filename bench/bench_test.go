package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// digest hashes everything a workload feeds the servers: the dataset files
// and, in order, every warm-up and stream request body.
func digest(t *testing.T, name string, seed int64) string {
	t.Helper()
	w, err := buildWorkload(name, seed, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, ds := range w.datasets {
		fmt.Fprintf(h, "%s\x00%s\x00", ds.name, ds.text)
	}
	for _, rs := range [][]request{w.warm, w.stream} {
		for _, r := range rs {
			h.Write(r.body)
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	first := map[string]string{}
	for _, name := range workloadNames {
		first[name] = digest(t, name, 7)
		if other := digest(t, name, 8); other == first[name] {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", name)
		}
	}
	// Generated again, in the opposite order: a workload's inputs depend on
	// neither the run nor which workloads were generated before it.
	for i := len(workloadNames) - 1; i >= 0; i-- {
		name := workloadNames[i]
		if again := digest(t, name, 7); again != first[name] {
			t.Errorf("%s: seed 7 gave different inputs the second time", name)
		}
	}
}

// TestStreamSizes pins what the README states about each stream relative to
// the 256-entry result cache.
func TestStreamSizes(t *testing.T) {
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 7, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[string]bool{}
		for _, r := range w.stream {
			distinct[string(r.body)] = true
		}
		if name == "hot_repeat" {
			if len(distinct) > cacheEntries/4 {
				t.Errorf("hot_repeat: %d distinct texts, want at most %d", len(distinct), cacheEntries/4)
			}
			continue
		}
		if len(distinct) != len(w.stream) || len(distinct) < 2*cacheEntries {
			t.Errorf("%s: %d distinct texts in a cycle of %d, want all distinct and at least %d",
				name, len(distinct), len(w.stream), 2*cacheEntries)
		}
		for _, r := range w.warm {
			if distinct[string(r.body)] {
				t.Errorf("%s: a warm-up text is also in the stream, so it could hit the cache", name)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	var p50 metricSpec
	for _, m := range spec.EndToEnd {
		if m.Name == "latency_p50_ms" {
			p50 = m
		}
	}
	write := func(name string, value, spread float64) string {
		f := resultFile{Workloads: map[string]*runResult{"enum_deep": {
			EndToEnd: metrics{"latency_p50_ms": {Value: value, Unit: "ms", Spread: spread}},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 0)
	for _, c := range []struct {
		name          string
		value, spread float64
		want          int
	}{
		{"same", 100, 0, 0},
		{"inside the bound", 100 * (1 + p50.Bound/2), 0, 0},
		{"worse", 100 * (1 + 2*p50.Bound), 0, 1},
		{"better", 50, 0, 0},
		{"spread wider than the bound is unresolved, not worse", 100 * (1 + 2*p50.Bound), 2 * p50.Bound, 0},
	} {
		if got := compareFiles(root, base, write("b.json", c.value, c.spread)); got != c.want {
			t.Errorf("%s: compare exited %d, want %d", c.name, got, c.want)
		}
	}
}

// TestQuickRun is the smoke run: every workload against real wdptd
// processes with its traced replay, on a tenth of the data with 2 s
// windows. It checks that nothing failed, that the metrics printed are
// exactly the ones BENCHMARK.json names, and that no process or temporary
// directory is left behind.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns wdptd processes for ~20 s")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if code := run([]string{"-quick", "--seed", "3"}); code != 0 {
		t.Fatalf("bench -quick exited %d", code)
	}
	t.Logf("quick run took %v", time.Since(start).Round(time.Second))

	var spec benchmarkSpec
	var res resultFile
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if err := readJSON(filepath.Join(root, "bench", "out", "result.json"), &res); err != nil {
		t.Fatal(err)
	}
	units := func(specs []metricSpec) map[string]string {
		out := map[string]string{}
		for _, m := range specs {
			out[m.Name] = m.Unit
		}
		return out
	}
	same := func(workload, group string, got metrics, want map[string]string) {
		var problems []string
		for name, m := range got {
			if unit, ok := want[name]; !ok {
				problems = append(problems, name+" is not in BENCHMARK.json")
			} else if unit != m.Unit {
				problems = append(problems, fmt.Sprintf("%s has unit %s, BENCHMARK.json says %s", name, m.Unit, unit))
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				problems = append(problems, name+" was not reported")
			}
		}
		sort.Strings(problems)
		if len(problems) > 0 {
			t.Errorf("%s %s: %s", workload, group, strings.Join(problems, "; "))
		}
	}
	for _, name := range workloadNames {
		r := res.Workloads[name]
		if r == nil {
			t.Fatalf("result.json has no workload %s", name)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", name, r.Failed, r.Attempted, r.Failures)
		}
		same(name, "end_to_end", r.EndToEnd, units(spec.EndToEnd))
		same(name, "per_layer", r.PerLayer, units(spec.PerLayer))
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace_"+name+".json")); err != nil {
			t.Error(err)
		}
	}

	if left, _ := filepath.Glob(filepath.Join(root, "bench", "out", "run-*")); len(left) > 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
	cmdlines, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, path := range cmdlines {
		if data, err := os.ReadFile(path); err == nil && strings.Contains(string(data), filepath.Join(".bench_build", "bin", "wdptd")) {
			t.Errorf("wdptd still running: %s", strings.ReplaceAll(string(data), "\x00", " "))
		}
	}
}
