package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files — both values, the relative difference of the second from
// the first, and a verdict against the metric's bound in BENCHMARK.json —
// and returns 1 if any row is worse. A row whose recorded run-to-run
// spread exceeds the bound is unresolved: the files cannot settle it.
func compareFiles(root, pathA, pathB string) int {
	var spec benchmarkSpec
	var a, b resultFile
	for _, f := range []struct {
		path string
		into any
	}{{filepath.Join(root, "BENCHMARK.json"), &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	worse := false
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := ra.EndToEnd[m.Name]
			mb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB || ma.Value == 0 {
				continue
			}
			diff := (mb.Value - ma.Value) / ma.Value
			loss := diff // how much worse b is, as a share of a
			if m.Better == "higher" {
				loss = -diff
			}
			verdict := "ok"
			switch {
			case max(ma.Spread, mb.Spread) > m.Bound:
				verdict = "unresolved"
			case loss > m.Bound:
				verdict, worse = "worse", true
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", name, m.Name, ma.Value, mb.Value, 100*diff, 100*m.Bound, verdict)
		}
		if rb.Failed > ra.Failed {
			fmt.Printf("%-14s %-22s %14d %14d %9s %7s  %s\n", name, "failed", ra.Failed, rb.Failed, "", "", "worse")
			worse = true
		}
	}
	if worse {
		return 1
	}
	return 0
}
