package report_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/guard"
	"wdpt/internal/report"
	"wdpt/internal/uwdpt"
)

// rowValues rename the values of gen.RandomDatabase: every escape the
// encoder writes, a NUL, and bytes that are not UTF-8.
var rowValues = []string{"a\x00b", `say "hi"`, "<a&b>", "line\u2028sep", "bad\xff\xfe", "plain"}

// rowDatabase is gen.RandomDatabase with value k renamed rowValues[k],
// sealed (IDs in term order) or not (IDs in first-seen order).
func rowDatabase(seed int64, seal bool) *db.Database {
	src := gen.RandomDatabase(gen.DBParams{DomainSize: len(rowValues)}, seed)
	d := db.New()
	for _, r := range src.Relations() {
		for i := 0; i < r.Len(); i++ {
			t := make([]string, r.Arity())
			for j, id := range r.Scan(i) {
				k, err := strconv.Atoi(src.Dict().Term(id))
				if err != nil {
					panic(err) // RandomDatabase writes decimal values
				}
				t[j] = rowValues[k]
			}
			d.Insert(r.Name(), t...)
		}
	}
	if seal {
		d.Seal()
	}
	return d
}

// solver is a pattern tree or a union.
type solver interface {
	Solve(context.Context, *db.Database, core.SolveOptions) (core.Result, error)
}

// TestAppendRowsMatchesAppend: for every random tree and union, database,
// engine, enumeration mode and parallelism, AppendRows of a Rows solve is
// byte for byte report.Append of the mapping solve, and Rows.Mappings()
// is its Answers. Unions pair members with different free variables; the
// cases include a tree with no free variable, an empty result and
// answer-capped runs (206).
func TestAppendRowsMatchesAppend(t *testing.T) {
	type query struct {
		name string
		q    solver
	}
	var queries []query
	for seed := int64(0); seed < 24; seed++ {
		p := gen.RandomWDPT(gen.TreeParams{MaxDepth: 2, MaxChildren: 2}, seed)
		queries = append(queries, query{fmt.Sprintf("tree%d", seed), p})
		if seed%3 == 0 {
			q := gen.RandomWDPT(gen.TreeParams{MaxDepth: 1, MaxChildren: 2, FreeProb: 0.7}, seed+100)
			queries = append(queries, query{fmt.Sprintf("union%d", seed), uwdpt.MustNew(p, q)})
		}
	}
	edge := core.NodeSpec{Atoms: []cq.Atom{cq.NewAtom("E", cq.V("a"), cq.V("b"))}}
	queries = append(queries,
		query{"no_free", core.MustNew(core.NodeSpec{Atoms: edge.Atoms, Children: []core.NodeSpec{
			{Atoms: []cq.Atom{cq.NewAtom("T", cq.V("b"), cq.V("c"), cq.V("a"))}}}}, nil)},
		query{"empty", core.MustNew(core.NodeSpec{Atoms: []cq.Atom{cq.NewAtom("Absent", cq.V("a"))}}, []string{"a"})},
		query{"union_no_free", uwdpt.MustNew(core.MustNew(edge, nil), core.MustNew(edge, []string{"b"}))},
	)
	type run struct {
		par, maxAnswers int
	}
	runs := []run{{1, 0}, {8, 0}, {1, 2}}
	var seen struct{ answers, empty, unbound, capped int }
	for dbSeed := int64(0); dbSeed < 2; dbSeed++ {
		d := rowDatabase(dbSeed, dbSeed == 0)
		for _, engine := range []string{"naive", "auto", "decomposition"} {
			eng, err := cqeval.ByName(engine)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				for _, mode := range []core.Mode{core.ModeEnumerate, core.ModeMaximal} {
					for _, r := range runs {
						name := fmt.Sprintf("db%d/%s/%s/%v/P%d/cap%d", dbSeed, engine, q.name, mode, r.par, r.maxAnswers)
						opts := core.SolveOptions{Mode: mode, Engine: eng, Parallelism: r.par, Budget: guard.Budget{MaxAnswers: int64(r.maxAnswers)}}
						mres, merr := q.q.Solve(context.Background(), d, opts)
						opts.Rows = true
						rres, rerr := q.q.Solve(context.Background(), d, opts)
						if (merr == nil) != (rerr == nil) || merr != nil && !errors.Is(merr, guard.ErrAnswerLimit) {
							t.Fatalf("%s: errors %v and %v", name, merr, rerr)
						}
						if rres.Answers != nil || rres.Rows == nil || mres.Rows != nil {
							t.Fatalf("%s: a Rows solve returned Answers %v, Rows %v; a mapping solve Rows %v", name, rres.Answers, rres.Rows, mres.Rows)
						}
						got := rres.Rows.Mappings()
						if len(got) != len(mres.Answers) {
							t.Fatalf("%s: %d rows, %d answers", name, len(got), len(mres.Answers))
						}
						for i := range got {
							if !got[i].Equal(mres.Answers[i]) {
								t.Fatalf("%s: row %d decodes to %v, answer %v", name, i, got[i], mres.Answers[i])
							}
							if len(got[i]) == 0 {
								seen.unbound++
							}
						}
						rep := report.Report{Mode: mode.String(), Engine: engine, Parallelism: r.par}
						rep.NoteDegraded(mres)
						rowBody, err := report.AppendRows(nil, rep, rres.Rows)
						if err != nil {
							t.Fatal(err)
						}
						rep.SetAnswers(mres.Answers)
						mapBody, err := report.Append(nil, rep)
						if err != nil {
							t.Fatal(err)
						}
						if string(rowBody) != string(mapBody) {
							t.Fatalf("%s: AppendRows wrote\n%s\nreport.Append wrote\n%s", name, rowBody, mapBody)
						}
						if merr != nil {
							if status := report.HTTPStatus(rerr); status != 206 {
								t.Fatalf("%s: a capped run maps to %d, want 206", name, status)
							}
							seen.capped++
						}
						seen.answers += len(got)
						if len(got) == 0 {
							seen.empty++
						}
					}
				}
			}
		}
	}
	t.Logf("%d answers, %d empty results, %d answers binding nothing, %d capped runs", seen.answers, seen.empty, seen.unbound, seen.capped)
	if seen.answers == 0 || seen.empty == 0 || seen.unbound == 0 || seen.capped == 0 {
		t.Fatalf("a case went unexercised: %+v", seen)
	}
}
