// Command bench is the repository benchmark: it builds wdptd from the
// working tree, generates datasets and request streams from a seed, drives
// real wdptd processes over loopback HTTP in a closed loop, checks every
// answer, and prints the metrics BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload enum_deep --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --seed 1 -sets 2          # all workloads with their traces, twice
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the run-to-run spread over repeated sets, as a share of the
	// median; only set in files written with -sets.
	Spread float64 `json:"spread,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// runResult is one invocation's outcome for one workload.
type runResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Samples is the number of latency samples behind the percentiles.
	Samples int `json:"samples"`
	// ByteChecked is how many bodies were compared byte for byte with the
	// in-process library path.
	ByteChecked int     `json:"byte_checked"`
	EndToEnd    metrics `json:"end_to_end,omitempty"`
	PerLayer    metrics `json:"per_layer,omitempty"`
}

// machine describes where a result was measured.
type machine struct {
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Kernel      string   `json:"kernel"`
	Commit      string   `json:"commit"`
	LoadAvg1    string   `json:"loadavg_1m_at_start"`
	ServerFlags []string `json:"wdptd_flags"`
}

// resultFile is bench/out/result.json, the document -compare reads and
// baseline/reference.json holds.
type resultFile struct {
	Machine   machine               `json:"machine"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Sets      int                   `json:"sets"`
	Workloads map[string]*runResult `json:"workloads"`
}

func describeMachine(root string) machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", LoadAvg1: "unknown", ServerFlags: serverFlags,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		m.LoadAvg1 = strings.Fields(string(b))[0]
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // the driver's checkout is not a git repository
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the datasets and request streams")
	seconds := fs.Float64("seconds", 12, "length of the measured window")
	trace := fs.Int("trace", 0, "1 adds the in-process traced replay and prints the per-layer metrics instead of the end-to-end ones")
	quick := fs.Bool("quick", false, "smoke run: a tenth of the data and 2 s windows")
	sets := fs.Int("sets", 1, "with -workload all, repeat the whole set this many times and record medians and spread")
	compare := fs.Bool("compare", false, "compare two result files given as arguments against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *sets < 1 {
		fmt.Fprintln(os.Stderr, "bench: -sets must be at least 1")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1))
	}

	// Servers die with this process (Pdeathsig) and on every return path;
	// a signal cancels ctx so the return paths run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	b := &bench{root: root, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), sizes: fullSizes, setups: 5}
	if *quick {
		b.sizes, b.window, b.setups = quickSizes, 2*time.Second, 1
	}
	if *workloadName == "all" {
		err = b.runAll(ctx, *sets)
	} else {
		err = b.runOne(ctx, *workloadName, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// prepare builds wdptd and makes the output directory.
func (b *bench) prepare() error {
	var err error
	if b.bin, err = buildServer(b.root); err != nil {
		return err
	}
	b.outDir = filepath.Join(b.root, "bench", "out")
	return os.MkdirAll(b.outDir, 0o755)
}

// runOne is what the driver invokes: one workload, one mode, the result on
// the last line. Failed requests are reported there, not by the exit code.
func (b *bench) runOne(ctx context.Context, name string, traced bool) error {
	if err := b.prepare(); err != nil {
		return err
	}
	res, err := b.runWorkload(ctx, name, traced)
	if err != nil {
		return err
	}
	shown := res.EndToEnd
	if traced {
		shown = res.PerLayer
	}
	printResult(name, res, shown)
	return nil
}

// runAll runs every workload with its trace, sets times over, and writes
// result.json; it fails if any request did.
func (b *bench) runAll(ctx context.Context, sets int) error {
	if err := b.prepare(); err != nil {
		return err
	}
	out := resultFile{Machine: describeMachine(b.root), Seed: b.seed, Seconds: b.window.Seconds(), Sets: sets}
	var all []map[string]*runResult
	for s := 0; s < sets; s++ {
		set := map[string]*runResult{}
		for _, name := range workloadNames {
			res, err := b.runWorkload(ctx, name, true)
			if err != nil {
				return err
			}
			printResult(name, res, res.EndToEnd)
			printResult(name, res, res.PerLayer)
			set[name] = res
		}
		all = append(all, set)
	}
	out.Workloads = mergeSets(all)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for name, res := range out.Workloads {
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d requests failed", name, res.Failed, res.Attempted)
		}
	}
	return nil
}

// printResult prints the metrics by name with their units, then — as the
// last line — the one-object summary the driver reads.
func printResult(workload string, res *runResult, shown metrics) {
	names := make([]string, 0, len(shown))
	for name := range shown {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: attempted %d, failed %d, latency samples %d, bodies byte-checked %d\n",
		workload, res.Attempted, res.Failed, res.Samples, res.ByteChecked)
	for _, f := range res.Failures {
		fmt.Printf("  failure: %s\n", f)
	}
	for _, name := range names {
		fmt.Printf("  %-44s %14.4f %s\n", name, shown[name].Value, shown[name].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, shown})
	if err != nil {
		panic(err) // numbers and strings always encode
	}
	fmt.Println(string(line))
}

// mergeSets folds repeated sets into one result per workload: each metric's
// median, and its spread (max − min over fewer than four sets, else the
// interquartile range) as a share of that median.
func mergeSets(sets []map[string]*runResult) map[string]*runResult {
	out := map[string]*runResult{}
	for _, name := range workloadNames {
		merged := *sets[len(sets)-1][name]
		merged.EndToEnd, merged.PerLayer = metrics{}, metrics{}
		fold := func(dst metrics, pick func(*runResult) metrics) {
			for mname, last := range pick(sets[len(sets)-1][name]) {
				vals := make([]float64, len(sets))
				for i, set := range sets {
					vals[i] = pick(set[name])[mname].Value
				}
				sort.Float64s(vals)
				m := metric{Value: median(vals), Unit: last.Unit}
				if len(vals) > 1 && m.Value != 0 {
					lo, hi := vals[0], vals[len(vals)-1]
					if len(vals) >= 4 {
						lo, hi = quantile(vals, 0.25), quantile(vals, 0.75)
					}
					m.Spread = (hi - lo) / m.Value
				}
				dst[mname] = m
			}
		}
		fold(merged.EndToEnd, func(r *runResult) metrics { return r.EndToEnd })
		fold(merged.PerLayer, func(r *runResult) metrics { return r.PerLayer })
		out[name] = &merged
	}
	return out
}
