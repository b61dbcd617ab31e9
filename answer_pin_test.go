package wdpt_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/sparql"
)

// Answer pins: SHA-256 digests of the report.Encode body of the path and
// union requests the benchmark's enum_deep and cluster_union workloads
// send, computed with the evaluator as it was before Solve applied
// Lemma 1's pruning and before SortSolutions keyed each answer once. The
// maximal bodies carry the engine label auto; they were re-pinned with it
// while maximal requests still ran the engine-less backtracking arm, and
// that arm and the Auto engine served the same answers. Any change to how
// trees are evaluated or answers are ordered must leave every body
// byte-identical. The server's bodies, written from answer rows by
// report.AppendRows, must match the same digests.

// pathFreeSets are the free-variable sets of the pinned path requests:
// the four the enum_deep workload draws from, then every variable of the
// path (nothing prunes).
var pathFreeSets = [][]int{{0}, {1}, {0, 1}, {0, 2}, nil}

// pathPins maps "d<depth>/<mode>/<free>" to the body digest. In the
// all-free sets nothing prunes and no answer is subsumed by another, so
// the maximal body differs from the enumerate one in its mode field alone;
// it is pinned anyway, because it is the case where the maximal filter
// compares the most answers (about 0.3 s at depth 4 and 0.8 s at depth 5
// on a 2-vCPU box).
var pathPins = map[string]string{
	"d4/enumerate/y0":                "ee9c059f4ef7b2ddc5ef5e9480d4e754c87d755d25347e4d1477865a8238512f",
	"d4/maximal/y0":                  "350cbfd6063766461de4c89213a48f4678492746a56d021a1775f35c22d41d73",
	"d4/enumerate/y1":                "9c9447446629b2aa497297a077620f4df04ed353a1aaa2b5f579b70312a6dfae",
	"d4/maximal/y1":                  "fce52cd657ababe9b25caee97958b4c86a07e7f0712ecbd162c4759a1be71977",
	"d4/enumerate/y0,y1":             "7aa92b83feb920ad9f72170810af02ca336275b00b7292a23077df7166572988",
	"d4/maximal/y0,y1":               "bb922438711dad9a9100b0d41e3fcddeb9cbd1c32b51fdf848345a7548d444c1",
	"d4/enumerate/y0,y2":             "8c3549bbe51bafc89514c3de753ddf7b44d7b9ee9db87c24947feab8f4bdd93f",
	"d4/maximal/y0,y2":               "0856452214d605c6c35bafd91466300115e286d545a4f82a045c77aaca0d2580",
	"d4/enumerate/y0,y1,y2,y3,y4":    "8e0e54ef6de2db4f02c438a7ec6eb51bf67471bbeb36b4e037f455b70b4380c0",
	"d4/maximal/y0,y1,y2,y3,y4":      "e84c9a8c4340204894a632c82f1029c87e68a7b4f63d98c3e8afbcb072fcb188",
	"d5/enumerate/y0":                "ee9c059f4ef7b2ddc5ef5e9480d4e754c87d755d25347e4d1477865a8238512f",
	"d5/maximal/y0":                  "350cbfd6063766461de4c89213a48f4678492746a56d021a1775f35c22d41d73",
	"d5/enumerate/y1":                "9c9447446629b2aa497297a077620f4df04ed353a1aaa2b5f579b70312a6dfae",
	"d5/maximal/y1":                  "fce52cd657ababe9b25caee97958b4c86a07e7f0712ecbd162c4759a1be71977",
	"d5/enumerate/y0,y1":             "7aa92b83feb920ad9f72170810af02ca336275b00b7292a23077df7166572988",
	"d5/maximal/y0,y1":               "bb922438711dad9a9100b0d41e3fcddeb9cbd1c32b51fdf848345a7548d444c1",
	"d5/enumerate/y0,y2":             "8c3549bbe51bafc89514c3de753ddf7b44d7b9ee9db87c24947feab8f4bdd93f",
	"d5/maximal/y0,y2":               "0856452214d605c6c35bafd91466300115e286d545a4f82a045c77aaca0d2580",
	"d5/enumerate/y0,y1,y2,y3,y4,y5": "6fc664668dd12ba0a0f87c8f2be2535af22c6176991c3854db286be418bd1066",
	"d5/maximal/y0,y1,y2,y3,y4,y5":   "010a797473ebc73a2c43673e0237286a63160c82e433a067423b6829ab39d578",
}

// encodeDigest encodes answers the way wdpteval -json does and returns
// the SHA-256 of the body.
func encodeDigest(t *testing.T, mode core.Mode, engine string, answers []cq.Mapping) string {
	t.Helper()
	rep := report.Report{Mode: mode.String(), Engine: engine, Parallelism: 1}
	rep.SetAnswers(answers)
	var buf bytes.Buffer
	if err := report.Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// rowsDigest encodes answer rows the way the server does and returns the
// SHA-256 of the body.
func rowsDigest(t *testing.T, mode core.Mode, engine string, rows *core.Rows) string {
	t.Helper()
	body, err := report.AppendRows(nil, report.Report{Mode: mode.String(), Engine: engine, Parallelism: 1}, rows)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// pathFree names the free variables of a pinned path of the given depth.
func pathFree(depth int, idx []int) []string {
	if idx == nil {
		for i := 0; i <= depth; i++ {
			idx = append(idx, i)
		}
	}
	free := make([]string, len(idx))
	for i, v := range idx {
		free[i] = fmt.Sprintf("y%d", v)
	}
	return free
}

func TestPathAnswerPins(t *testing.T) {
	d := gen.LayeredDatabase(6, 32, 3, 1)
	for _, depth := range []int{4, 5} {
		for _, idx := range pathFreeSets {
			free := pathFree(depth, idx)
			p := gen.PathWDPT(depth, free...)
			for _, mode := range []core.Mode{core.ModeEnumerate, core.ModeMaximal} {
				name := fmt.Sprintf("d%d/%s/%s", depth, mode, strings.Join(free, ","))
				want, pinned := pathPins[name]
				if !pinned {
					continue
				}
				t.Run(name, func(t *testing.T) {
					// The server's engine, auto, for both modes; maximal
					// also runs with no engine, on cqeval.Naive(), which
					// must serve the same body. At P=8 each root candidate
					// expands on its own worker and the per-candidate sets
					// merge.
					engines := []func() cqeval.Engine{cqeval.Auto}
					if mode == core.ModeMaximal {
						engines = append(engines, nil)
					}
					for _, newEngine := range engines {
						for _, par := range []int{1, 8} {
							opts := core.SolveOptions{Mode: mode, Parallelism: par}
							arm := "nil engine"
							if newEngine != nil {
								opts.Engine, arm = newEngine(), "auto"
							}
							res, err := p.Solve(context.Background(), d, opts)
							if err != nil {
								t.Fatalf("%s %s P=%d: %v", name, arm, par, err)
							}
							got := encodeDigest(t, mode, "auto", res.Answers)
							if got != want {
								t.Errorf("%s %s P=%d: body digest %s (%d answers), want %s", name, arm, par, got, len(res.Answers), want)
							}
							if newEngine == nil {
								continue
							}
							// The server's arm: answer rows, encoded from IDs.
							opts.Engine, opts.Rows = newEngine(), true
							res, err = p.Solve(context.Background(), d, opts)
							if err != nil {
								t.Fatalf("%s rows P=%d: %v", name, par, err)
							}
							if got := rowsDigest(t, mode, "auto", res.Rows); got != want {
								t.Errorf("%s rows P=%d: body digest %s (%d answers), want %s", name, par, got, res.Rows.N, want)
							}
						}
					}
				})
			}
		}
	}
}

// unionPinQuery is the cluster_union workload's two-tree union over
// MusicDatabaseLarge(500, 6, 1): about 3 000 answers.
const unionPinQuery = "SELECT ?x ?y ?z WHERE (recorded_by(?x, ?y) AND published(?x, after_2010)) OPT rating(?x, ?z) " +
	"UNION SELECT ?x ?y ?zp WHERE (recorded_by(?x, ?y) AND published(?x, before_2010)) OPT formed_in(?y, ?zp)"

const unionPin = "6d1354e9885519db150f9b71e6f2edb887948d2ad9b3a70a7e14659a948104f1"

func TestUnionAnswerPin(t *testing.T) {
	d := gen.MusicDatabaseLarge(500, 6, 1)
	u, err := sparql.ParseUnionQuery(unionPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 8} {
		res, err := u.Solve(context.Background(), d, core.SolveOptions{Mode: core.ModeEnumerate, Engine: cqeval.Auto(), Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeDigest(t, core.ModeEnumerate, "auto", res.Answers); got != unionPin {
			t.Errorf("P=%d: body digest %s (%d answers), want %s", par, got, len(res.Answers), unionPin)
		}
		res, err = u.Solve(context.Background(), d, core.SolveOptions{Mode: core.ModeEnumerate, Engine: cqeval.Auto(), Parallelism: par, Rows: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsDigest(t, core.ModeEnumerate, "auto", res.Rows); got != unionPin {
			t.Errorf("rows P=%d: body digest %s (%d answers), want %s", par, got, res.Rows.N, unionPin)
		}
	}
}

// TestAllFreePathExtensionUnits pins the expansion work of the all-free
// depth-5 path: every node introduces a free variable, so no branch is
// pruned and the count of extension units tested must not move.
func TestAllFreePathExtensionUnits(t *testing.T) {
	const want = 8542
	p := gen.PathWDPT(5, pathFree(5, nil)...)
	st := obs.NewStats()
	if _, err := p.Solve(context.Background(), gen.LayeredDatabase(6, 32, 3, 1), core.SolveOptions{Mode: core.ModeEnumerate, Stats: st}); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(obs.CtrExtensionUnits); got != want {
		t.Errorf("core.extension_units_tested = %d, want %d", got, want)
	}
}

// TestStarExtensionUnits pins the expansion work and the answer body of a
// branching tree at P ∈ {1, 8}. StarWDPT(3) has three OPT children under
// its root, and on LayeredDatabase(3, 4, 2, 1) every vertex of the first
// two layers matches all three, so one (subtree, mapping) state is reached
// along several orders of the same children: the visited map is what
// keeps each such state from being expanded twice.
func TestStarExtensionUnits(t *testing.T) {
	const (
		wantUnits = 198
		wantBody  = "a5a4fcf156908b7104b7fa6a4f77546c3a7a37874302b2d6260760513fdf0b4d"
	)
	p := gen.StarWDPT(3)
	d := gen.LayeredDatabase(3, 4, 2, 1)
	for _, par := range []int{1, 8} {
		for _, engine := range []string{"naive", "auto"} {
			opts := core.SolveOptions{Mode: core.ModeEnumerate, Stats: obs.NewStats(), Parallelism: par}
			if engine == "auto" {
				opts.Engine = cqeval.Auto()
			}
			res, err := p.Solve(context.Background(), d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := opts.Stats.Get(obs.CtrExtensionUnits); got != wantUnits {
				t.Errorf("P=%d %s: core.extension_units_tested = %d, want %d", par, engine, got, wantUnits)
			}
			if got := encodeDigest(t, core.ModeEnumerate, "pin", res.Answers); got != wantBody {
				t.Errorf("P=%d %s: body digest %s (%d answers), want %s", par, engine, got, len(res.Answers), wantBody)
			}
		}
	}
}

// TestBandExtensionUnits pins the expansion work and the answer body of the
// point_mix band tree at P ∈ {1, 8}. Its published ∧ rating unit has two
// atoms, so this is the pin on a multi-atom extension unit.
func TestBandExtensionUnits(t *testing.T) {
	const (
		wantUnits = 19
		wantBody  = "6c28d4fea73614069b82544bb9db05e5ea6dc00419af21d4f70f38ecfec5fa6a"
	)
	p, err := sparql.ParseQuery(bandPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	d := gen.MusicDatabaseLarge(500, 6, 1)
	for _, par := range []int{1, 8} {
		for _, engine := range []string{"naive", "auto"} {
			opts := core.SolveOptions{Mode: core.ModeEnumerate, Stats: obs.NewStats(), Parallelism: par}
			if engine == "auto" {
				opts.Engine = cqeval.Auto()
			}
			res, err := p.Solve(context.Background(), d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := opts.Stats.Get(obs.CtrExtensionUnits); got != wantUnits {
				t.Errorf("P=%d %s: core.extension_units_tested = %d, want %d", par, engine, got, wantUnits)
			}
			if got := encodeDigest(t, core.ModeEnumerate, "pin", res.Answers); got != wantBody {
				t.Errorf("P=%d %s: body digest %s (%d answers), want %s", par, engine, got, len(res.Answers), wantBody)
			}
		}
	}
}

// TestLongPathAnswerPin pins a tree of more than 64 nodes: a path of 70
// OPT nodes over a chain of 90 edges, free on every seventh variable so
// that Lemma 1 prunes nothing. Its rooted subtrees are its 70 prefixes.
// Each of the 90 root edges expands as far down the chain as it reaches,
// so enumerate and maximal give 90 answers on both evaluation arms, at
// P ∈ {1, 8}. None subsumes another, so the two bodies are one.
func TestLongPathAnswerPin(t *testing.T) {
	const (
		wantSubtrees = 70
		wantAnswers  = 90
		wantBody     = "fd3b15cb90996b0d975b7c5106d5f65b1b28143a214f74162ec6830e2a723de6"
	)
	var free []string
	for i := 0; i <= 70; i += 7 {
		free = append(free, fmt.Sprintf("y%d", i))
	}
	p := gen.PathWDPT(70, free...)
	if got := p.NumNodes(); got != 70 {
		t.Fatalf("%d nodes, want 70", got)
	}
	subtrees := 0
	p.EnumerateSubtrees(func(core.Subtree) bool {
		subtrees++
		return true
	})
	if subtrees != wantSubtrees {
		t.Errorf("EnumerateSubtrees visited %d subtrees, want %d", subtrees, wantSubtrees)
	}
	d := gen.ChainDatabase(90)
	for _, mode := range []core.Mode{core.ModeEnumerate, core.ModeMaximal} {
		for _, engine := range []string{"naive", "auto"} {
			for _, par := range []int{1, 8} {
				opts := core.SolveOptions{Mode: mode, Parallelism: par}
				if engine == "auto" {
					opts.Engine = cqeval.Auto()
				}
				res, err := p.Solve(context.Background(), d, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Answers) != wantAnswers {
					t.Errorf("%s %s P=%d: %d answers, want %d", mode, engine, par, len(res.Answers), wantAnswers)
				}
				if got := encodeDigest(t, core.ModeEnumerate, "pin", res.Answers); got != wantBody {
					t.Errorf("%s %s P=%d: body digest %s, want %s", mode, engine, par, got, wantBody)
				}
			}
		}
	}
}
