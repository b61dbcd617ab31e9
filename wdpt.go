// Package wdpt is a library for building, analyzing, evaluating, and
// approximating well-designed pattern trees (WDPTs) over arbitrary
// relational schemas, implementing Barceló & Pichler, "Efficient Evaluation
// and Approximation of Well-designed Pattern Trees" (PODS 2015).
//
// WDPTs extend conjunctive queries with optional matching — the tree
// representation of the {AND, OPT} fragment of SPARQL — so that queries
// over semistructured or incomplete data return the best answers available
// instead of failing. The library provides:
//
//   - the WDPT data type with well-designedness validation, plus parsers
//     for an algebraic {AND, OPT} syntax and an explicit tree format
//     (ParseQuery, ParseWDPT);
//   - the three evaluation problems — exact (EVAL), partial (PARTIAL-EVAL)
//     and maximal (MAX-EVAL) — with both naive baselines and the paper's
//     tractable algorithms (Theorems 6-9), driven by conjunctive-query
//     engines based on Yannakakis' algorithm and tree decompositions;
//   - the structural classifiers of Section 3: local tractability ℓ-C(k),
//     bounded interface BI(c), global tractability g-C(k);
//   - subsumption, subsumption-equivalence, and max-equivalence (Section 4);
//   - WB(k)-membership and WB(k)-approximation (Section 5);
//   - unions of WDPTs with union evaluation, the φ_cq translation,
//     M(UWB(k)) membership and UWB(k)-approximation (Section 6).
//
// The exported surface is a façade over the internal packages; see the
// package documentation of internal/core for the underlying machinery and
// DESIGN.md for the per-theorem map.
package wdpt

import (
	"wdpt/internal/approx"
	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/rdf"
	"wdpt/internal/sparql"
	"wdpt/internal/subsume"
	"wdpt/internal/uwdpt"
)

// Core data types.
type (
	// Term is a variable or constant in a relational atom.
	Term = cq.Term
	// Atom is a relational atom R(v1, ..., vn).
	Atom = cq.Atom
	// CQ is a conjunctive query.
	CQ = cq.CQ
	// Mapping is a partial mapping from variables to constants — both the
	// query input of the evaluation problems and the answer type.
	Mapping = cq.Mapping
	// Database is a finite set of ground relational atoms.
	Database = db.Database
	// TripleStore is the RDF view of a Database (one ternary relation).
	TripleStore = db.TripleStore
	// PatternTree is a well-designed pattern tree.
	PatternTree = core.PatternTree
	// NodeSpec describes a node when constructing a PatternTree.
	NodeSpec = core.NodeSpec
	// Union is a union of WDPTs.
	Union = uwdpt.Union
	// Engine is a CQ evaluation engine driving the tractable algorithms.
	Engine = cqeval.Engine
	// Class is a syntactic class of CQs (TW(k), HW(k), HW'(k)).
	Class = cq.Class
	// Classification reports where a tree sits in the Section 3 taxonomy.
	Classification = core.Classification
	// SubsumeOptions configures the subsumption decision procedures.
	SubsumeOptions = subsume.Options
	// ApproxOptions configures the approximation candidate search.
	ApproxOptions = approx.Options
	// SolveOptions configures a PatternTree.Solve or Union.Solve call: the
	// problem mode, candidate mapping, engine, stats sink, parallelism,
	// resource budget, and fallback policy.
	SolveOptions = core.SolveOptions
	// SolveMode selects the evaluation problem a Solve call answers.
	SolveMode = core.Mode
	// SolveResult is the outcome of a Solve call: Answers for the
	// enumeration modes, Holds for the decision modes.
	SolveResult = core.Result
	// Optimized is the fixed-parameter-tractable evaluator of Corollary 2.
	Optimized = approx.Optimized
	// OptimizedUnion is the union counterpart (Corollary 3).
	OptimizedUnion = uwdpt.OptimizedUnion
)

// Solve modes: the consolidated evaluation entry point's problem selector.
const (
	// ModeEnumerate computes p(D) (Definition 2).
	ModeEnumerate = core.ModeEnumerate
	// ModeMaximal computes p_m(D) (Section 3.4).
	ModeMaximal = core.ModeMaximal
	// ModeExact decides h ∈ p(D) via the Theorem 6 interface algorithm.
	ModeExact = core.ModeExact
	// ModeExactNaive decides h ∈ p(D) via the band-enumeration baseline.
	ModeExactNaive = core.ModeExactNaive
	// ModePartial decides PARTIAL-EVAL (Theorem 8).
	ModePartial = core.ModePartial
	// ModeMax decides MAX-EVAL (Theorem 9).
	ModeMax = core.ModeMax
)

// Term constructors.
var (
	// V returns a variable term.
	V = cq.V
	// C returns a constant term.
	C = cq.C
	// NewAtom builds an atom.
	NewAtom = cq.NewAtom
)

// Deterministic solution ordering. Every enumeration in the library already
// returns this order; the helpers let consumers re-canonicalize solution
// lists they have merged or filtered themselves.
var (
	// SortSolutions sorts a solution list in place into the canonical order
	// (by variable name, then term value) and returns it, making output
	// byte-stable across runs.
	SortSolutions = cq.SortSolutions
	// CompareSolutions compares two mappings in the canonical solution order,
	// returning -1, 0, or +1.
	CompareSolutions = cq.CompareMappings
)

// Database constructors.
var (
	// NewDatabase returns an empty database.
	NewDatabase = db.New
	// NewTripleStore returns an RDF-style database.
	NewTripleStore = db.NewTripleStore
)

// Pattern-tree constructors.
var (
	// New builds a validated WDPT from a node spec and free variables.
	New = core.New
	// MustNew is New that panics on error.
	MustNew = core.MustNew
	// FromCQ converts a CQ to the equivalent single-node WDPT.
	FromCQ = core.FromCQ
	// NewUnion builds a union of WDPTs.
	NewUnion = uwdpt.New
)

// Parsers and formatters (see internal/sparql for the grammars).
var (
	// ParseQuery parses "SELECT ?x WHERE <{AND,OPT} pattern>" (or a bare,
	// projection-free pattern) into a WDPT.
	ParseQuery = sparql.ParseQuery
	// ParseUnionQuery parses queries joined by UNION.
	ParseUnionQuery = sparql.ParseUnionQuery
	// ParseSPARQL parses the W3C-flavored surface syntax:
	// "SELECT ?x WHERE { ?s ?p ?o . OPTIONAL { ... } }".
	ParseSPARQL = sparql.ParseSPARQL
	// ParseSPARQLUnion parses SPARQL-syntax queries joined by UNION.
	ParseSPARQLUnion = sparql.ParseSPARQLUnion
	// ParseWDPT parses the explicit "ANS(?x) { ... }" tree format.
	ParseWDPT = sparql.ParseWDPT
	// ParseDatabase parses a line-oriented ground-atom database file.
	ParseDatabase = sparql.ParseDatabase
	// FormatWDPT renders a tree in the ParseWDPT format.
	FormatWDPT = sparql.Format
	// FormatDatabase renders a database in the ParseDatabase format.
	FormatDatabase = sparql.FormatDatabase
)

// CQ classes for the classifiers, well-behaved classes, and approximation.
var (
	// TW returns the class of CQs of treewidth at most k.
	TW = cq.TW
	// HW returns the class of CQs of (generalized) hypertreewidth ≤ k.
	HW = cq.HW
	// HWPrime returns the class HW'(k) (β-hypertreewidth ≤ k).
	HWPrime = cq.HWPrime
	// WB returns the well-behaved class WB(k) = g-TW(k) of Section 5.
	WB = approx.WB
	// WBPrime returns WB(k) with C(k) = HW'(k).
	WBPrime = approx.WBPrime
)

// Evaluation engines (Theorems 2, 3 substrate).
var (
	// NaiveEngine is the baseline backtracking engine.
	NaiveEngine = cqeval.Naive
	// YannakakisEngine evaluates acyclic CQs by semijoin programs.
	YannakakisEngine = cqeval.Yannakakis
	// DecompositionEngine evaluates via tree decompositions.
	DecompositionEngine = cqeval.Decomposition
	// HypertreeEngine evaluates via generalized hypertree decompositions
	// of bounded width (the true HW(k) engine of Theorem 3).
	HypertreeEngine = cqeval.Hypertree
	// AutoEngine picks Yannakakis when acyclic, decompositions otherwise.
	AutoEngine = cqeval.Auto
)

// Observability: engine-level counters, spans, and EXPLAIN plans (see
// docs/OBSERVABILITY.md for the counter glossary and output formats).
type (
	// Stats is a set of atomic work counters shared by every evaluation
	// layer; attach one to an engine with WithStats and read it back with
	// Snapshot. A nil *Stats disables recording at near-zero cost.
	Stats = obs.Stats
	// Counter identifies one registered counter.
	Counter = obs.Counter
	// Plan is the structured EXPLAIN value returned by Engine.Explain.
	Plan = obs.Plan
	// PlanBag is one bag of a join-tree / decomposition plan.
	PlanBag = obs.PlanBag
	// Timer measures functions with warm-up and min-of-N repetition.
	Timer = obs.Timer
	// TraceSink receives span events from a Stats with tracing attached.
	TraceSink = obs.TraceSink
)

// Observability constructors.
var (
	// NewStats returns an empty, enabled counter set.
	NewStats = obs.NewStats
	// WithStats returns a copy of an engine that records its work on the
	// given Stats; the WDPT algorithms above the engine report their own
	// counters (bands, memo hits, ...) to the same sink.
	WithStats = cqeval.WithStats
	// StatsOf returns the Stats attached to an engine, or nil.
	StatsOf = cqeval.StatsOf
	// AllCounters returns every registered counter in declaration order.
	AllCounters = obs.Counters
)

// Guardrails: resource budgets, graceful degradation, and deterministic
// fault injection (see docs/ROBUSTNESS.md for semantics and examples).
type (
	// Budget bounds one evaluation attempt: wall clock, intermediate tuples
	// materialized, and answers produced. The zero value imposes no limits.
	// Set it on SolveOptions.Budget; pair with SolveOptions.Fallback to
	// degrade down the exact → maximal → partial ladder instead of failing.
	Budget = guard.Budget
	// TripError is the typed error a budget trip, injected fault, or
	// recovered panic surfaces as, carrying the trip site and progress
	// stats; match its cause with errors.Is against the Err* sentinels.
	TripError = guard.TripError
	// FaultInjector deterministically fails registered evaluation sites
	// (nth call or probabilistic, from a fixed seed) for chaos testing.
	FaultInjector = guard.Injector
)

// Guardrail sentinels and helpers.
var (
	// ErrDeadline reports that Budget.Wall (or a context deadline) expired.
	ErrDeadline = guard.ErrDeadline
	// ErrTupleBudget reports that Budget.MaxTuples was exceeded.
	ErrTupleBudget = guard.ErrTupleBudget
	// ErrAnswerLimit reports that Budget.MaxAnswers truncated an
	// enumeration; the partial answer set is still returned.
	ErrAnswerLimit = guard.ErrAnswerLimit
	// ErrInjected reports a fault raised by an active FaultInjector.
	ErrInjected = guard.ErrInjected
	// ErrPanic reports an engine panic recovered at the Solve boundary.
	ErrPanic = guard.ErrPanic
	// Degradable reports whether an error is a budget trip the fallback
	// ladder may recover from (deadline, tuple budget, or answer limit).
	Degradable = guard.Degradable
	// NewFaultInjector returns a deterministic injector seeded for
	// reproducible chaos runs; configure with FailNth / FailProb.
	NewFaultInjector = guard.NewInjector
	// ActivateFaults installs an injector process-wide and returns a
	// restore function; for tests only.
	ActivateFaults = guard.Activate
	// FaultSites lists the registered fault-injection site names.
	FaultSites = guard.Sites
)

// RDF scenario (Section 2): answer-preserving encodings into the single
// ternary triple relation.
var (
	// EncodeRDF converts a relational pattern tree to an RDF WDPT.
	EncodeRDF = rdf.Encode
	// EncodeRDFDatabase converts a relational database to triples.
	EncodeRDFDatabase = rdf.EncodeDatabase
	// IsRDFTree reports whether a tree is an RDF WDPT (triples only).
	IsRDFTree = rdf.IsRDF
)

// Static analysis (Section 4).
var (
	// Subsumes decides p1 ⊑ p2.
	Subsumes = subsume.Subsumes
	// SubsumptionEquivalent decides p1 ≡s p2.
	SubsumptionEquivalent = subsume.Equivalent
	// MaxEquivalent decides p1 ≡max p2 (= ≡s by Proposition 5).
	MaxEquivalent = subsume.MaxEquivalent
	// SubsumptionCounterExample returns a witness database and answer
	// refuting p1 ⊑ p2, if any.
	SubsumptionCounterExample = subsume.CounterExample
)

// Semantic optimization and approximation (Sections 5, 6).
var (
	// Approximate computes a WB(k)-approximation of p.
	Approximate = approx.Approximate
	// ApproximateAll returns all maximal approximation candidates.
	ApproximateAll = approx.ApproximateAll
	// MemberWB decides membership in M(WB(k)) with a witness.
	MemberWB = approx.MemberWB
	// Optimize builds the Corollary 2 FPT evaluator: one membership test
	// at construction, tractable PARTIAL-EVAL / MAX-EVAL afterwards.
	Optimize = approx.Optimize
	// IsApproximation checks a candidate approximation.
	IsApproximation = approx.IsApproximation
	// ApproximateUnion computes the UWB(k)-approximation of a union as a
	// union of tractable CQs (Theorem 18).
	ApproximateUnion = uwdpt.ApproximateUWB
	// MemberUnionWB decides membership in M(UWB(k)) (Theorem 17).
	MemberUnionWB = uwdpt.MemberUWB
	// SubsumesUnion decides φ1 ⊑ φ2 for unions.
	SubsumesUnion = uwdpt.Subsumes
	// OptimizeUnion builds the Corollary 3 FPT union evaluator.
	OptimizeUnion = uwdpt.OptimizeUnion
)
