// Command wdpteval evaluates a well-designed pattern tree over a database.
//
// The query is given either in the algebraic {AND, OPT} syntax
// ("SELECT ?x WHERE (a(?x) OPT b(?x, ?y))") or in the explicit tree format
// ("ANS(?x) { a(?x) { b(?x, ?y) } }"); the database is a file of ground
// atoms, one per line ("a(1). b(1, 2)."). Modes:
//
//	enumerate  print p(D) (default)
//	maximal    print p_m(D), the maximal-mappings semantics
//	exact      decide h ∈ p(D) for the mapping given with -map
//	partial    decide whether h extends to an answer
//	max        decide h ∈ p_m(D)
//
// Every mode routes through the consolidated Solve API, so concurrency,
// cancellation, and resource budgets are uniform:
//
//	-parallelism n    Solve worker pool (1 = sequential, 0 = NumCPU); answers
//	                  are byte-identical at every value
//	-timeout d        cancel the evaluation after d (e.g. 30s); exits non-zero
//	-budget-tuples n  fail (or degrade) after materializing n intermediate
//	                  tuples
//	-max-answers n    truncate enumeration after n answers; the partial
//	                  answer set is still printed
//	-fallback         on a tripped budget, degrade down the
//	                  exact → maximal → partial ladder instead of failing
//	                  (docs/ROBUSTNESS.md); degraded output is marked
//
// Persistence (docs/STORAGE.md): -snapshot loads the database from a
// durable binary snapshot instead of parsing text (mutually exclusive with
// -db); -snapshot-save writes the loaded database to a snapshot through the
// crash-safe writer after loading. With -snapshot-save and no query, the
// tool saves the snapshot and exits 0 — the text-to-snapshot conversion
// mode scripts use.
//
// Exit codes: 0 success, 2 usage or evaluation error, 3 deadline exceeded,
// 4 tuple budget exceeded, 5 answer limit reached (partial answers were
// printed).
//
// Observability (see docs/OBSERVABILITY.md):
//
//	-explain       print the plan the engine chose for each tree node
//	-stats         print the engine work counters after evaluating
//	-json          emit one JSON document (answers, plans, counters)
//	-trace         collect per-evaluation spans and print the span tree
//	               (with -json, embed it in the document under "trace" —
//	               the same shape wdptd serves for ?trace=1)
//	-cpuprofile f  write a pprof CPU profile to f
//	-memprofile f  write a pprof heap profile to f
//	-exectrace f   write a runtime execution trace to f
//
// Example:
//
//	wdpteval -db data.txt -query 'SELECT ?y WHERE (rec(?x,?y) OPT rating(?x,?z))'
//	wdpteval -db data.txt -queryfile q.wdpt -mode partial -map 'y=Caribou'
//	wdpteval -db data.txt -queryfile q.wdpt -explain -stats -json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"wdpt"
	"wdpt/internal/core"
	"wdpt/internal/cqeval"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/obs"
	"wdpt/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options collects the parsed command line.
type options struct {
	query, queryFile, dbFile string
	snapshot, snapshotSave   string
	mode, mapping, engine    string
	classify                 bool
	explain                  bool
	stats                    bool
	trace                    bool
	jsonOut                  bool
	optimize                 int
	parallelism              int
	timeout                  time.Duration
	budgetTuples             int64
	maxAnswers               int64
	fallback                 bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdpteval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.query, "query", "", "query text (algebraic or ANS tree format)")
	fs.StringVar(&o.queryFile, "queryfile", "", "file containing the query")
	fs.StringVar(&o.dbFile, "db", "", "database file of ground atoms (required unless -snapshot)")
	fs.StringVar(&o.snapshot, "snapshot", "", "load the database from this binary snapshot instead of -db (docs/STORAGE.md)")
	fs.StringVar(&o.snapshotSave, "snapshot-save", "", "after loading, durably write the database to this snapshot path; with no query, save and exit")
	fs.StringVar(&o.mode, "mode", "enumerate", "enumerate|maximal|exact|partial|max")
	fs.StringVar(&o.mapping, "map", "", "partial mapping 'x=a,y=b' for the decision modes")
	fs.StringVar(&o.engine, "engine", "auto", "CQ engine: auto|naive|yannakakis|decomposition|hypertree")
	fs.BoolVar(&o.classify, "classify", false, "print the structural classification before evaluating")
	fs.BoolVar(&o.explain, "explain", false, "print the chosen evaluation plan for each tree node")
	fs.BoolVar(&o.stats, "stats", false, "print the engine work counters after evaluating")
	fs.BoolVar(&o.trace, "trace", false, "collect per-evaluation spans and print the span tree (with -json, embed it under \"trace\")")
	fs.BoolVar(&o.jsonOut, "json", false, "emit one JSON document instead of text")
	fs.IntVar(&o.optimize, "optimize", 0, "k > 0: route partial/max modes through the Corollary 2 M(WB(k)) witness when one exists")
	fs.IntVar(&o.parallelism, "parallelism", 1, "Solve worker pool size (1 = sequential, 0 = NumCPU)")
	fs.DurationVar(&o.timeout, "timeout", 0, "cancel the evaluation after this duration (0 = none)")
	fs.Int64Var(&o.budgetTuples, "budget-tuples", 0, "fail (or degrade with -fallback) after materializing this many intermediate tuples (0 = unlimited)")
	fs.Int64Var(&o.maxAnswers, "max-answers", 0, "truncate enumeration after this many answers (0 = unlimited)")
	fs.BoolVar(&o.fallback, "fallback", false, "on a tripped budget, degrade exact→maximal→partial instead of failing")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	traceFile := fs.String("exectrace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stop, err := obs.Profiles{CPUFile: *cpuProfile, MemFile: *memProfile, TraceFile: *traceFile}.Start()
	if err != nil {
		fmt.Fprintf(stderr, "wdpteval: %v\n", err)
		return 2
	}
	err = evalMain(stdout, o)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintf(stderr, "wdpteval: %v\n", err)
		return exitCode(err)
	}
	return 0
}

// exitCode maps guard trips to distinct exit codes so scripts can tell a
// resource-limit stop (retryable with a bigger budget or -fallback) from a
// genuine evaluation error. The taxonomy lives in internal/report so wdptd
// classifies the same errors identically (as HTTP statuses).
var exitCode = report.ExitCode

func evalMain(out io.Writer, o options) error {
	d, err := loadDatabaseSource(o)
	if err != nil {
		return err
	}
	if o.snapshotSave != "" {
		if err := snapshot.Write(o.snapshotSave, d); err != nil {
			return fmt.Errorf("saving snapshot: %w", err)
		}
		if o.query == "" && o.queryFile == "" {
			// Conversion mode: -snapshot-save with no query just persists the
			// loaded database and exits.
			fmt.Fprintf(out, "snapshot saved to %s\n", o.snapshotSave)
			return nil
		}
	}
	p, err := loadQuery(o.query, o.queryFile)
	if err != nil {
		return err
	}
	eng, err := cqeval.ByName(o.engine)
	if err != nil {
		return err
	}
	var st *wdpt.Stats
	if o.stats || o.jsonOut || o.trace {
		st = wdpt.NewStats()
		eng = wdpt.WithStats(eng, st)
	}
	var tr *obs.Collector
	if o.trace {
		tr = &obs.Collector{}
		st.WithTrace(tr)
	}
	par := o.parallelism
	if par == 0 {
		par = runtime.NumCPU()
	}
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	// The root span covers everything after loading: classification,
	// explain, and the evaluation itself. Inert unless -trace is on.
	root := st.StartSpan("eval")
	rep := report.Report{Mode: o.mode, Engine: o.engine, Parallelism: par}
	if o.classify {
		rep.Classification = p.Classify().String()
		if !o.jsonOut {
			fmt.Fprintln(out, rep.Classification)
			fmt.Fprintln(out)
		}
	}
	if o.explain {
		// Explain before evaluating, so the plan cache the diagnostic pass
		// leaves warm mirrors what evaluation will reuse; Explain itself
		// records no counters.
		explainSpan := root.Child("explain")
		rep.Plans = p.ExplainNodes(d, eng)
		explainSpan.End()
		if !o.jsonOut {
			fmt.Fprintf(out, "EXPLAIN (%d node(s)):\n", len(rep.Plans))
			for _, plan := range rep.Plans {
				fmt.Fprint(out, plan.Format())
			}
			fmt.Fprintln(out)
		}
	}
	budget := wdpt.Budget{MaxTuples: o.budgetTuples, MaxAnswers: o.maxAnswers}
	// evalErr carries a trip (e.g. the answer limit) whose partial result is
	// still emitted below; run maps it to the documented exit code.
	var evalErr error
	solveSpan := root.Child("solve")
	switch o.mode {
	case "enumerate", "maximal":
		mode, label := wdpt.ModeEnumerate, "p(D)"
		if o.mode == "maximal" {
			mode, label = wdpt.ModeMaximal, "p_m(D)"
		}
		res, err := p.Solve(ctx, d, wdpt.SolveOptions{
			Mode: mode, Engine: eng, Parallelism: par,
			Budget: budget, Fallback: o.fallback,
		})
		if err != nil && !errors.Is(err, wdpt.ErrAnswerLimit) {
			return err
		}
		evalErr = err
		noteDegraded(&rep, out, o.jsonOut, res)
		rep.SetAnswers(res.Answers)
		if !o.jsonOut {
			fmt.Fprintf(out, "%s: %d answer(s)\n", label, *rep.AnswerCount)
			for _, h := range rep.Answers {
				fmt.Fprintln(out, "  "+h.String())
			}
		}
	case "exact", "partial", "max":
		h, err := parseMapping(o.mapping)
		if err != nil {
			return err
		}
		mode := wdpt.ModeExact
		switch o.mode {
		case "partial":
			mode = wdpt.ModePartial
		case "max":
			mode = wdpt.ModeMax
		}
		// With -optimize, partial and max go through the Corollary 2
		// evaluator, which answers them on the tractable witness.
		var target interface {
			Solve(context.Context, *wdpt.Database, wdpt.SolveOptions) (wdpt.SolveResult, error)
		} = p
		if o.optimize > 0 && mode != wdpt.ModeExact {
			opt, err := wdpt.Optimize(ctx, p, wdpt.WB(o.optimize), wdpt.ApproxOptions{Parallelism: par})
			if err != nil {
				return err
			}
			tractable := opt.Tractable()
			rep.OptimizerTractable = &tractable
			if !o.jsonOut {
				fmt.Fprintf(out, "(optimizer: tractable witness found: %v)\n", tractable)
			}
			target = opt
		}
		res, err := target.Solve(ctx, d, wdpt.SolveOptions{
			Mode: mode, Mapping: h, Engine: eng, Parallelism: par,
			Budget: budget, Fallback: o.fallback,
		})
		if err != nil {
			return err
		}
		noteDegraded(&rep, out, o.jsonOut, res)
		rep.SetResult(res.Holds)
		if !o.jsonOut {
			fmt.Fprintln(out, res.Holds)
		}
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
	solveSpan.End()
	if o.stats {
		rep.Counters = st.Snapshot()
		if !o.jsonOut {
			fmt.Fprintf(out, "\ncounters:\n%s", st.Format())
		}
	}
	if o.trace {
		// Close the root before reconstructing, so its duration covers the
		// whole evaluation — the same contract as wdptd's ?trace=1.
		root.End()
		rep.Trace = obs.BuildSpanTree(tr.Spans())
		if !o.jsonOut {
			fmt.Fprintf(out, "\ntrace:\n%s", obs.FormatSpanTree(rep.Trace))
		}
	}
	if o.jsonOut {
		if err := report.Encode(out, rep); err != nil {
			return err
		}
	}
	return evalErr
}

// noteDegraded records a Degraded result on the report and, in text mode,
// prints the marker before the answers so truncated or fallback output is
// never mistaken for the full semantics.
func noteDegraded(rep *report.Report, out io.Writer, jsonOut bool, res wdpt.SolveResult) {
	if rep.NoteDegraded(res) && !jsonOut {
		fmt.Fprintf(out, "(degraded: result carries %s semantics)\n", rep.DegradedMode)
	}
}

func loadQuery(inline, file string) (*core.PatternTree, error) {
	src := inline
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		src = string(data)
	}
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("a query is required (-query or -queryfile)")
	}
	if strings.HasPrefix(strings.TrimSpace(strings.ToUpper(src)), "ANS") {
		return wdpt.ParseWDPT(src)
	}
	return wdpt.ParseQuery(src)
}

// loadDatabaseSource resolves the database from whichever source the flags
// name: -snapshot reads the durable binary format through the paranoid
// loader, -db parses the line-oriented text format. Exactly one is required.
func loadDatabaseSource(o options) (*wdpt.Database, error) {
	switch {
	case o.snapshot != "" && o.dbFile != "":
		return nil, fmt.Errorf("-db and -snapshot are mutually exclusive")
	case o.snapshot != "":
		d, err := snapshot.Read(o.snapshot)
		if err != nil {
			return nil, fmt.Errorf("loading snapshot: %w", err)
		}
		return d, nil
	case o.dbFile != "":
		data, err := os.ReadFile(o.dbFile)
		if err != nil {
			return nil, err
		}
		return wdpt.ParseDatabase(string(data))
	}
	return nil, fmt.Errorf("a database is required (-db or -snapshot)")
}

func parseMapping(s string) (wdpt.Mapping, error) {
	h := wdpt.Mapping{}
	if strings.TrimSpace(s) == "" {
		return h, nil
	}
	twice := ""
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("bad -map entry %q (want var=value)", part)
		}
		name := strings.TrimPrefix(kv[0], "?")
		if _, seen := h[name]; seen && (twice == "" || name < twice) {
			twice = name
		}
		h[name] = kv[1]
	}
	if twice != "" {
		return nil, fmt.Errorf("variable %q is named twice in -map", twice)
	}
	return h, nil
}
