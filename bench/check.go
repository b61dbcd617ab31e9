package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/server"
	"wdpt/internal/sparql"
)

// solver is what a parsed request text evaluates through: one tree or a
// union of trees.
type solver interface {
	Solve(ctx context.Context, d *db.Database, opts core.SolveOptions) (core.Result, error)
}

// parseQuery parses a request text the way /v1/query does and returns the
// solver with its member trees.
func parseQuery(text string) (solver, []*core.PatternTree, error) {
	if strings.HasPrefix(text, "ANS") {
		p, err := sparql.ParseWDPT(text)
		if err != nil {
			return nil, nil, err
		}
		return p, []*core.PatternTree{p}, nil
	}
	u, err := sparql.ParseUnionQuery(text)
	if err != nil {
		return nil, nil, err
	}
	if trees := u.Trees(); len(trees) == 1 {
		return trees[0], trees, nil
	}
	return u, u.Trees(), nil
}

var modes = map[string]core.Mode{
	"enumerate": core.ModeEnumerate, "maximal": core.ModeMaximal,
	"exact": core.ModeExact, "partial": core.ModePartial, "max": core.ModeMax,
}

// solveOptions builds the options /v1/query builds for req: the auto
// engine, except that maximal drives the backtracking solver. Counters land
// on st when it is non-nil.
func solveOptions(req *server.Request, st *obs.Stats) core.SolveOptions {
	opts := core.SolveOptions{Mode: modes[req.Mode], Parallelism: 1}
	if opts.Mode == core.ModeMaximal {
		opts.Stats = st
		return opts
	}
	opts.Engine = cqeval.Auto()
	if st != nil {
		opts.Engine = cqeval.WithStats(opts.Engine, st)
	}
	if len(req.Mapping) > 0 {
		opts.Mapping = cq.Mapping(req.Mapping)
	}
	return opts
}

// newReport fills the report a result produces, given its already sorted
// answers.
func newReport(req *server.Request, res core.Result, sorted []cq.Mapping) report.Report {
	rep := report.Report{Mode: req.Mode, Engine: "auto", Parallelism: 1}
	if opts := modes[req.Mode]; opts == core.ModeEnumerate || opts == core.ModeMaximal {
		n := len(sorted)
		rep.AnswerCount, rep.Answers = &n, sorted
	} else {
		rep.SetResult(res.Holds)
	}
	return rep
}

// libraryBody answers r on the in-process library path sparql.Parse* →
// Solve → report.Encode: the bytes the server must produce.
func libraryBody(r *request, d *db.Database) ([]byte, core.Result, error) {
	q, _, err := parseQuery(r.req.Query)
	if err != nil {
		return nil, core.Result{}, err
	}
	res, err := q.Solve(context.Background(), d, solveOptions(&r.req, nil))
	if err != nil {
		return nil, core.Result{}, err
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, newReport(&r.req, res, cq.SortSolutions(res.Answers))); err != nil {
		return nil, core.Result{}, err
	}
	return buf.Bytes(), res, nil
}

func (w *workload) database(name string) *db.Database {
	for _, ds := range w.datasets {
		if ds.name == name {
			return ds.db
		}
	}
	panic("workload " + w.name + " has no dataset " + name)
}

// fillExpectations solves one text of every class the fact oracle does not
// cover and shares the outcome with the class: an answer count is invariant
// under the renamings that make the texts distinct.
func (w *workload) fillExpectations() error {
	byClass := map[string]*expect{}
	fill := func(rs []request) error {
		for i := range rs {
			r := &rs[i]
			if r.want != nil {
				continue
			}
			if byClass[r.class] == nil {
				_, res, err := libraryBody(r, w.database(r.req.Dataset))
				if err != nil {
					return fmt.Errorf("solving class %s: %w", r.class, err)
				}
				byClass[r.class] = &expect{count: len(res.Answers)}
			}
			r.want = byClass[r.class]
		}
		return nil
	}
	if err := fill(w.warm); err != nil {
		return err
	}
	return fill(w.stream)
}

// The report encoder writes fields in a fixed order, so the count or the
// verdict sits in the first bytes of a body of any size.
var (
	answerCountKey = []byte(`"answer_count": `)
	resultKey      = []byte(`"result": `)
)

// checkOutcome compares a 200 body against the request's expected count or
// verdict without decoding the answers; it returns the answer count seen.
func checkOutcome(r *request, body []byte) (int, error) {
	head := body
	if len(head) > 256 {
		head = head[:256]
	}
	if r.want.decision {
		i := bytes.Index(head, resultKey)
		if i < 0 {
			return 0, fmt.Errorf("no result field")
		}
		got := bytes.HasPrefix(head[i+len(resultKey):], []byte("true"))
		if got != r.want.holds {
			return 0, fmt.Errorf("result %v, want %v", got, r.want.holds)
		}
		return 0, nil
	}
	i := bytes.Index(head, answerCountKey)
	if i < 0 {
		return 0, fmt.Errorf("no answer_count field")
	}
	digits := head[i+len(answerCountKey):]
	if j := bytes.IndexAny(digits, ",\n"); j >= 0 {
		digits = digits[:j]
	}
	got, err := strconv.Atoi(string(digits))
	if err != nil {
		return 0, fmt.Errorf("answer_count: %w", err)
	}
	if got != r.want.count {
		return got, fmt.Errorf("answer_count %d, want %d", got, r.want.count)
	}
	return got, nil
}
