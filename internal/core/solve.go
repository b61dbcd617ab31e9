package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/par"
)

// This file is the one entry point for every WDPT evaluation problem of
// Section 3: ModeEnumerate computes p(D), ModeMaximal p_m(D), ModeExact and
// ModeExactNaive decide EVAL, ModePartial decides PARTIAL-EVAL and ModeMax
// MAX-EVAL. Every caller — the Section 4–5 procedures in internal/subsume
// and internal/approx included — goes through Solve, so context
// cancellation, engine selection, observability, parallelism, and resource
// budgets are configured in one place.
//
// Determinism contract: for every mode and every Parallelism level the
// returned answers are byte-identical, and at Parallelism ≤ 1 the counter
// totals on SolveOptions.Stats equal the historical sequential totals
// exactly. Parallel fan-outs only cover work whose operation set is
// order-independent, so all non-par.* counters stay level-independent too.
// With no Budget set and a non-cancellable context, no guard meter exists,
// so the guardrails add nothing to answers or counters.
//
// Robustness contract (docs/ROBUSTNESS.md): Solve never panics — engine
// bugs, budget trips, and injected faults are recovered at this boundary
// into *guard.TripError values — and with Fallback set, a budget trip on a
// decision mode retries down the paper's tractability ladder
// (exact → maximal → partial; Theorems 8–9) instead of failing.

// Mode selects which evaluation problem Solve decides or computes.
type Mode int

const (
	// ModeEnumerate computes p(D), the set of maximal-homomorphism
	// projections of Definition 2.
	ModeEnumerate Mode = iota
	// ModeMaximal computes p_m(D): p(D) restricted to ⊑-maximal mappings
	// (Section 3.4).
	ModeMaximal
	// ModeExact decides h ∈ p(D) with the interface-relation algorithm of
	// Theorem 6 (polynomial on locally tractable trees of bounded
	// interface).
	ModeExact
	// ModeExactNaive decides h ∈ p(D) with the band-enumeration baseline
	// (correct everywhere, exponential in |p|). It uses the backtracking
	// homomorphism solver directly and ignores SolveOptions.Engine.
	ModeExactNaive
	// ModePartial decides PARTIAL-EVAL: h ⊑ h' for some h' ∈ p(D)
	// (Theorem 8).
	ModePartial
	// ModeMax decides MAX-EVAL: h ∈ p_m(D) (Theorem 9).
	ModeMax
)

// String returns the mode's stable name (the wdpteval -mode vocabulary).
func (m Mode) String() string {
	switch m {
	case ModeEnumerate:
		return "enumerate"
	case ModeMaximal:
		return "maximal"
	case ModeExact:
		return "exact"
	case ModeExactNaive:
		return "exact-naive"
	case ModePartial:
		return "partial"
	case ModeMax:
		return "max"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// FallbackLadder returns the degradation ladder for a mode: the weaker
// modes Solve retries, in order, when a budget trips and Fallback is set.
// The ladder follows the paper's tractability results — EVAL is
// Σ₂ᴾ-complete in general (Proposition 3) while MAX-EVAL and PARTIAL-EVAL
// stay in LOGCFL on globally tractable trees (Theorems 9 and 8) — so each
// hop trades answer precision for a strictly cheaper complexity class. The
// enumeration modes have no ladder (their truncation path is the answer
// cap, which keeps the partial answer set instead of retrying).
func FallbackLadder(m Mode) []Mode {
	switch m {
	case ModeExact, ModeExactNaive:
		return []Mode{ModeMax, ModePartial}
	case ModeMax:
		return []Mode{ModePartial}
	}
	return nil
}

// SolveOptions configures one Solve call. The zero value enumerates p(D)
// sequentially on cqeval.Naive(), with no observability and no resource
// limits.
type SolveOptions struct {
	// Mode selects the problem; see the Mode constants.
	Mode Mode
	// Mapping is the candidate mapping h for the decision modes (ModeExact,
	// ModeExactNaive, ModePartial, ModeMax); ignored by the enumeration
	// modes.
	Mapping cq.Mapping
	// Engine evaluates the node-level conjunctive queries. nil selects the
	// library default for the mode: cqeval.Naive() for the enumeration
	// modes, cqeval.Auto() for the decision modes. ModeExactNaive ignores
	// the engine and runs the backtracking solver directly. The server and
	// wdpteval always name an engine; subsume, approx and the E5–E12
	// experiments enumerate on the default, where Auto is still much
	// slower than the search (ROADMAP item 20).
	Engine cqeval.Engine
	// Stats receives work counters. nil falls back to the sink carried by
	// Engine (cqeval.WithStats); if both are set and differ, Stats wins and
	// the engine is rewired onto it.
	Stats *obs.Stats
	// Parallelism bounds the worker goroutines; values ≤ 1 run the exact
	// sequential legacy code paths and record no par.* counters.
	Parallelism int
	// Budget bounds each evaluation attempt (wall clock, intermediate
	// tuples, answers); see guard.Budget. The zero value imposes no limits.
	// Each attempt of the fallback ladder gets the full budget afresh.
	Budget guard.Budget
	// Fallback retries a budget-tripped decision mode down the degradation
	// ladder (FallbackLadder) and marks answer-capped enumerations Degraded
	// instead of returning guard.ErrAnswerLimit.
	Fallback bool
	// Meter shares an external guard meter across several Solve calls — one
	// budget for a whole union evaluation rather than per member. When set,
	// Budget is ignored and the fallback ladder is driven by the outermost
	// caller (Union.Solve), not per call.
	Meter *guard.Meter
	// Rows makes the enumeration modes return Result.Rows, the answers as
	// dictionary-ID rows, and leave Result.Answers nil. A caller that only
	// writes the answers out (the server, through report.AppendRows) never
	// builds a mapping per answer.
	Rows bool
}

// Result is the outcome of a Solve call: Answers for the enumeration modes,
// Holds for the decision modes.
type Result struct {
	// Answers is the enumerated answer set (enumeration modes without
	// SolveOptions.Rows).
	Answers []cq.Mapping
	// Rows is the enumerated answer set as ID rows (enumeration modes with
	// SolveOptions.Rows); Rows.Mappings() is what Answers would hold.
	Rows *Rows
	// Holds is the decision-mode verdict.
	Holds bool
	// Degraded reports that the result carries weaker semantics than the
	// requested mode: a fallback-ladder hop succeeded after a budget trip,
	// or the enumeration was truncated at Budget.MaxAnswers.
	Degraded bool
	// DegradedMode is the mode whose semantics the result actually carries
	// when Degraded (the successful rung of the ladder, or the truncated
	// enumeration mode itself).
	DegradedMode Mode
}

// Solve runs the selected evaluation problem over d. It returns an error
// when ctx is cancelled, when opts.Mode is unknown, or when a resource
// budget trips without a fallback; budget trips, injected faults, and
// recovered panics all surface as *guard.TripError values (errors.Is
// against guard.ErrDeadline, guard.ErrTupleBudget, guard.ErrAnswerLimit,
// guard.ErrInjected, guard.ErrPanic). Solve never panics: any panic below
// this boundary is recovered into an error. A nil ctx is treated as
// context.Background().
//
// Every mode evaluates the tree's Lemma 1 form: a branch that introduces
// no free variable changes neither p(D) nor p_m(D), hence no decision
// problem either, so such branches are dropped once per tree
// (PruneNonProjecting) and never expanded.
func (p *PatternTree) Solve(ctx context.Context, d *db.Database, opts SolveOptions) (res Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := opts.Stats
	if st == nil {
		st = cqeval.StatsOf(opts.Engine)
	}
	defer func() {
		// The boundary backstop: solveAttempt recovers evaluation panics, so
		// this only fires for bugs in the orchestration itself.
		if r := recover(); r != nil {
			res, err = Result{}, guard.AsError(r, st)
		}
	}()
	p = p.lemma1()
	if opts.Meter != nil {
		// An external meter means an outer caller owns budget and ladder.
		return p.solveAttempt(ctx, d, opts.Mode, opts, st, opts.Meter)
	}
	res, err = p.solveAttempt(ctx, d, opts.Mode, opts, st, guard.NewMeter(ctx, opts.Budget, st))
	if err == nil || !opts.Fallback || !guard.Degradable(err) {
		return res, err
	}
	for _, mode := range FallbackLadder(opts.Mode) {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, cerr
		}
		st.Inc(obs.CtrGuardFallbackHops)
		res, err = p.solveAttempt(ctx, d, mode, opts, st, guard.NewMeter(ctx, opts.Budget, st))
		if err == nil {
			res.Degraded, res.DegradedMode = true, mode
			return res, nil
		}
		if !guard.Degradable(err) {
			return Result{}, err
		}
	}
	return Result{}, err
}

// solveAttempt runs one evaluation attempt of the given mode under the
// meter m, recovering any panic below it — budget trips, injected faults,
// engine bugs — into an error.
func (p *PatternTree) solveAttempt(ctx context.Context, d *db.Database, mode Mode, opts SolveOptions, st *obs.Stats, m *guard.Meter) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, guard.AsError(r, st)
		}
	}()
	pool := par.New(opts.Parallelism, st)
	eng := opts.Engine
	switch {
	case eng != nil:
	case mode == ModeEnumerate || mode == ModeMaximal:
		eng = cqeval.Naive()
	default:
		eng = cqeval.Auto()
	}
	if opts.Stats != nil && cqeval.StatsOf(eng) != opts.Stats {
		eng = cqeval.WithStats(eng, opts.Stats)
	}
	eng = cqeval.WithMeter(cqeval.WithPool(eng, pool), m)
	switch mode {
	case ModeEnumerate, ModeMaximal:
		answers, err := p.enumerateSolve(ctx, d, eng, st, pool, m)
		if err != nil {
			return Result{}, err
		}
		rows := answers.sorted(d.Dict())
		if mode == ModeMaximal {
			rows = MergeRows([]*Rows{rows}, true)
		}
		if opts.Rows {
			res = Result{Rows: rows}
		} else {
			res = Result{Answers: rows.Mappings()}
		}
		if m.Truncated() {
			// The answer cap keeps the partial set: marked Degraded under
			// Fallback (or an outer shared-meter caller), paired with the
			// typed error otherwise — either way the answers survive.
			res.Degraded, res.DegradedMode = true, mode
			if opts.Fallback || opts.Meter != nil {
				return res, nil
			}
			return res, m.AnswerLimitError()
		}
		return res, nil
	case ModeExactNaive:
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{Holds: p.evalNaive(d, opts.Mapping, st, m)}, nil
	case ModeExact, ModePartial, ModeMax:
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		switch mode {
		case ModeExact:
			return Result{Holds: p.evalInterface(d, opts.Mapping, eng)}, nil
		case ModePartial:
			return Result{Holds: p.partialEval(d, opts.Mapping, eng)}, nil
		default:
			return Result{Holds: p.partialEval(d, opts.Mapping, eng) && !p.ProperExtensionExists(d, opts.Mapping, eng)}, nil
		}
	}
	return Result{}, fmt.Errorf("core: unknown solve mode %v", mode)
}

// enumerateSolve computes the full answer set of Definition 2. Root-node
// homomorphisms are materialized first and then expanded downward along
// extension units; with a parallel pool each root candidate expands on its
// own worker with private visited/answer state, and the per-candidate sets
// merge in candidate order. Visited keys of distinct root candidates never
// collide (every key embeds the root bindings), so the per-candidate dedup
// maps partition the shared sequential map exactly: the expansion work —
// and its counters — are identical at every parallelism level. The root
// and each extension unit reached are prepared once per Solve
// (cqeval.Prepare) and every worker runs the shared prepared units.
// The guard meter charges enumerated homomorphisms and caps the answer
// set; when the cap fires the remaining candidates are skipped and the
// partial set is returned truncated.
func (p *PatternTree) enumerateSolve(ctx context.Context, d *db.Database, eng cqeval.Engine, st *obs.Stats, pool *par.Pool, m *guard.Meter) (*answerSet, error) {
	x := &expansion{p: p, d: d, st: st, m: m, eng: eng, units: make(map[unitKey]*preparedUnit)}
	root := extUnit{nodes: []*Node{p.root}, atoms: p.root.atoms, proj: p.keptVars([]*Node{p.root}, p.root.vars)}
	empty := make([]uint32, len(p.treeVars()))
	for i := range empty {
		empty[i] = db.NoID
	}
	rows, n, at := x.run(&root, empty)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	free := slices.Clone(p.free)
	slices.Sort(free)
	freeAt := p.slots(free)
	if !pool.Parallel() || n <= 1 {
		answers := &answerSet{free: free, at: freeAt, keys: make(map[string]bool)}
		visited := make(map[string]bool)
		h := slices.Clone(empty)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if m.Truncated() {
				break
			}
			x.expand(visited, answers, p.RootSubtree(), extend(h, empty, rows, at, i), false)
		}
		return answers, nil
	}
	sets := par.Map(pool, n, func(i int) *answerSet {
		answers := &answerSet{free: free, at: freeAt, keys: make(map[string]bool)}
		x.expand(make(map[string]bool), answers, p.RootSubtree(), extend(slices.Clone(empty), empty, rows, at, i), false)
		return answers
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := len(p.free)
	for _, set := range sets[1:] {
		for i := 0; i < set.n; i++ {
			sets[0].addIf(set.rows[i*w:(i+1)*w], nil)
		}
	}
	return sets[0], nil
}

// answerSet is the distinct answers of an enumeration: n rows over the
// free variables sorted by name, at their tree slots at, in the order they
// were admitted and keyed by their db.AppendRowKey bytes.
type answerSet struct {
	free []string
	at   []int
	keys map[string]bool
	rows []uint32
	n    int
	buf  []byte
}

// addIf adds the answer row if it is new and admit (when non-nil) allows
// it; admit is called only for a new row.
func (a *answerSet) addIf(row []uint32, admit func() bool) {
	a.buf = db.AppendRowKey(a.buf[:0], row)
	if a.keys[string(a.buf)] || (admit != nil && !admit()) {
		return
	}
	a.keys[string(a.buf)] = true
	a.rows = append(a.rows, row...)
	a.n++
}

// sorted returns the answers in the canonical order of
// cq.CompareMappings.
func (a *answerSet) sorted(dict *db.Dict) *Rows {
	cq.SortRows(a.rows, a.n, dict)
	return &Rows{Vars: a.free, IDs: a.rows, N: a.n, Dict: dict}
}

// Rows is an enumeration's answers as dictionary-ID rows, in the canonical
// order of cq.CompareMappings: N rows of len(Vars) IDs laid end to end in
// IDs. Column c binds Vars[c], the free variables sorted by name, and
// db.NoID leaves it unbound. Dict decodes the IDs.
type Rows struct {
	Vars []string
	IDs  []uint32
	N    int
	Dict *db.Dict
}

// Row returns row i.
func (r *Rows) Row(i int) []uint32 {
	w := len(r.Vars)
	return r.IDs[i*w : i*w+w]
}

// Mappings decodes the rows, in order.
func (r *Rows) Mappings() []cq.Mapping {
	out := make([]cq.Mapping, r.N)
	for i := range out {
		out[i] = make(cq.Mapping, len(r.Vars))
		for c, id := range r.Row(i) {
			if id != db.NoID {
				out[i][r.Vars[c]] = r.Dict.Term(id)
			}
		}
	}
	return out
}

// MergeRows merges row sets over one dictionary, each in canonical order,
// into the canonical order of their union, over every set's Vars: a row
// several sets hold is kept once, and with maximal set only the rows no
// other merged row properly subsumes are kept (cq.MergeKeys). Theorem 16
// makes union evaluation member-wise, so this is how member answer sets
// combine; one set under maximal is p_m(D) from p(D).
func MergeRows(sets []*Rows, maximal bool) *Rows {
	var vars []string
	for _, s := range sets {
		vars = append(vars, s.Vars...)
	}
	slices.Sort(vars)
	vars = slices.Compact(vars)
	keys := make([][][]string, len(sets))
	at := make([][]int, len(sets))
	for i, s := range sets {
		keys[i] = cq.RowKeys(s.Vars, s.IDs, s.N, s.Dict)
		at[i] = make([]int, len(s.Vars))
		for c, v := range s.Vars {
			at[i][c], _ = slices.BinarySearch(vars, v)
		}
	}
	refs := cq.MergeKeys(keys, maximal)
	w := len(vars)
	out := &Rows{Vars: vars, IDs: make([]uint32, len(refs)*w), N: len(refs), Dict: sets[0].Dict}
	for i := range out.IDs {
		out.IDs[i] = db.NoID
	}
	for i, ref := range refs {
		row := out.Row(i)
		for c, id := range sets[ref.List].Row(ref.Index) {
			row[at[ref.List][c]] = id
		}
	}
	return out
}

// expansion is one enumeration's shared state, the prepared units
// included. A partial homomorphism is a tree row: one ID per variable of
// the tree (PatternTree.treeVars), db.NoID where it binds none.
type expansion struct {
	p     *PatternTree
	d     *db.Database
	st    *obs.Stats
	m     *guard.Meter
	eng   cqeval.Engine
	mu    sync.Mutex
	units map[unitKey]*preparedUnit
}

// unitKey names an extension unit by the ids of the first and last node of
// its chain, which fix the chain: it is the tree path between them. What
// Prepare reads of a unit depends only on the chain, whichever subtree S
// the unit extends. The atoms are the chain's. A chain variable v is bound
// iff it occurs in S, and then it occurs in the parent of the chain's first
// node f: S is rooted, holds f's parent and no node below f, so the tree
// path from a chain node to a node of S mentioning v passes through f's
// parent, and by well-designedness every node on it mentions v. Conversely
// f's parent is in S. So bound is the chain's variables that f's parent
// mentions, in the chain atoms' order, and proj (keptVars of the chain and
// its other variables) depends on the chain alone too. The root, prepared
// as a unit of its own, is the chain from node 0 to node 0.
type unitKey struct {
	first, last int
}

// key returns u's unitKey.
func (u *extUnit) key() unitKey {
	return unitKey{u.nodes[0].id, u.nodes[len(u.nodes)-1].id}
}

// preparedUnit is a prepared unit and the tree slot of each column of its
// rows.
type preparedUnit struct {
	once sync.Once
	q    *cqeval.Prepared
	at   []int
}

// run returns the extensions of the tree row h along u: n rows, column c
// for tree slot at[c]. They are the rows of u's prepared query, prepared
// on first use and shared by every worker.
func (x *expansion) run(u *extUnit, h []uint32) ([]uint32, int, []int) {
	key := u.key()
	x.mu.Lock()
	e := x.units[key]
	if e == nil {
		e = &preparedUnit{}
		x.units[key] = e
	}
	x.mu.Unlock()
	e.once.Do(func() {
		e.q = cqeval.Prepare(x.eng, u.atoms, x.d, u.bound, u.proj)
		e.at = x.p.slots(e.q.Vars())
	})
	fixed := make([]uint32, len(u.bound))
	for i, sl := range u.boundAt {
		fixed[i] = h[sl]
	}
	rows, n := e.q.Run(fixed)
	return rows, n, e.at
}

// extend writes h extended by row r of rows (columns at) into g.
func extend(g, h, rows []uint32, at []int, r int) []uint32 {
	copy(g, h)
	for c, sl := range at {
		g[sl] = rows[r*len(at)+c]
	}
	return g
}

// expand grows the subtree/homomorphism pair (s, h) along extension units
// until no extension is possible, collecting the free projections of the
// maximal homomorphisms. The meter checkpoints each expansion and gates
// answer collection on the answer budget.
//
// forked reports that some state on the way from the root candidate to
// (s, h) had two or more extension units. Only such a state can be reached
// twice, so only such a state is looked up in visited: two paths to one
// (s, h) start at the same root candidate (every mapping on a path extends
// it), and where they part they either take different units, which needs a
// state with at least two, or the same unit with different extensions,
// which bind some variable of the unit differently in every later mapping
// and so never meet again. A visited key is s's bits, which have one
// length per tree, then h's row key.
func (x *expansion) expand(visited map[string]bool, answers *answerSet, s Subtree, h []uint32, forked bool) {
	x.m.Checkpoint()
	if x.m.Truncated() {
		return
	}
	if forked {
		var buf [128]byte
		key := db.AppendRowKey(append(buf[:0], s.bits...), h)
		if visited[string(key)] {
			return
		}
		visited[string(key)] = true
	}
	units := x.p.extensionUnits(s)
	forked = forked || len(units) >= 2
	extendable := false
	for i := range units {
		u := &units[i]
		x.st.Inc(obs.CtrExtensionUnits)
		rows, n, at := x.run(u, h)
		if n == 0 {
			continue
		}
		extendable = true
		next := s.with(u.nodes...)
		g := make([]uint32, len(h))
		for r := 0; r < n; r++ {
			x.expand(visited, answers, next, extend(g, h, rows, at, r), forked)
		}
	}
	if !extendable {
		// Consume answer budget only for rows new to this candidate's set;
		// refusals mark the enumeration truncated. Without a meter
		// TryAnswer always admits.
		var buf [16]uint32
		free := buf[:0]
		for _, sl := range answers.at {
			free = append(free, h[sl])
		}
		answers.addIf(free, x.m.TryAnswer)
	}
}
