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
// Lemma 1's pruning and before SortSolutions keyed each answer once. Any
// change to how trees are evaluated or answers are ordered must leave
// every body byte-identical.

// pathFreeSets are the free-variable sets of the pinned path requests:
// the four the enum_deep workload draws from, then every variable of the
// path (nothing prunes).
var pathFreeSets = [][]int{{0}, {1}, {0, 1}, {0, 2}, nil}

// pathPins maps "d<depth>/<mode>/<free>" to the body digest. In the
// all-free sets nothing prunes and no answer is subsumed by another, so
// the maximal body differs from the enumerate one in its mode field alone;
// it is pinned anyway, because it is the case where MappingSet.Maximal
// compares the most answers (about 0.3 s at depth 4 and 0.8 s at depth 5
// on a 2-vCPU box).
var pathPins = map[string]string{
	"d4/enumerate/y0":                "ee9c059f4ef7b2ddc5ef5e9480d4e754c87d755d25347e4d1477865a8238512f",
	"d4/maximal/y0":                  "bb9c2158b06290b364aab92bdcef5041a0c7d6313c127950a56f1a3a9f6920a0",
	"d4/enumerate/y1":                "9c9447446629b2aa497297a077620f4df04ed353a1aaa2b5f579b70312a6dfae",
	"d4/maximal/y1":                  "d72f659cba8a14606ff3d41673a9fb0adb87892d00ca3dd8af47b1e21ab835b4",
	"d4/enumerate/y0,y1":             "7aa92b83feb920ad9f72170810af02ca336275b00b7292a23077df7166572988",
	"d4/maximal/y0,y1":               "bffdd46c5d2ab6d3fd5f4aa945430a400f395e184f1e5c8faff46c95259bcc1e",
	"d4/enumerate/y0,y2":             "8c3549bbe51bafc89514c3de753ddf7b44d7b9ee9db87c24947feab8f4bdd93f",
	"d4/maximal/y0,y2":               "24e1aece37b2f63917983d7f467e69e716551886c1fd210ea329ddb082e28be4",
	"d4/enumerate/y0,y1,y2,y3,y4":    "8e0e54ef6de2db4f02c438a7ec6eb51bf67471bbeb36b4e037f455b70b4380c0",
	"d4/maximal/y0,y1,y2,y3,y4":      "9e15debad313274c7b1d9f73ca893bed947eab380b444b871aa19977e43c1134",
	"d5/enumerate/y0":                "ee9c059f4ef7b2ddc5ef5e9480d4e754c87d755d25347e4d1477865a8238512f",
	"d5/maximal/y0":                  "bb9c2158b06290b364aab92bdcef5041a0c7d6313c127950a56f1a3a9f6920a0",
	"d5/enumerate/y1":                "9c9447446629b2aa497297a077620f4df04ed353a1aaa2b5f579b70312a6dfae",
	"d5/maximal/y1":                  "d72f659cba8a14606ff3d41673a9fb0adb87892d00ca3dd8af47b1e21ab835b4",
	"d5/enumerate/y0,y1":             "7aa92b83feb920ad9f72170810af02ca336275b00b7292a23077df7166572988",
	"d5/maximal/y0,y1":               "bffdd46c5d2ab6d3fd5f4aa945430a400f395e184f1e5c8faff46c95259bcc1e",
	"d5/enumerate/y0,y2":             "8c3549bbe51bafc89514c3de753ddf7b44d7b9ee9db87c24947feab8f4bdd93f",
	"d5/maximal/y0,y2":               "24e1aece37b2f63917983d7f467e69e716551886c1fd210ea329ddb082e28be4",
	"d5/enumerate/y0,y1,y2,y3,y4,y5": "6fc664668dd12ba0a0f87c8f2be2535af22c6176991c3854db286be418bd1066",
	"d5/maximal/y0,y1,y2,y3,y4,y5":   "9ac7907658b95da5e467f7f478a9dd265fa61b34f106fc1426d88eb046c6ce2e",
}

// encodeDigest encodes answers the way the server and wdpteval -json do and
// returns the SHA-256 of the body.
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
					// The server's engines: auto for enumerate, the
					// backtracking solver for maximal. At P=8 each root
					// candidate expands on its own worker and the
					// per-candidate sets merge.
					for _, par := range []int{1, 8} {
						opts := core.SolveOptions{Mode: mode, Parallelism: par}
						engine := "naive"
						if mode == core.ModeEnumerate {
							opts.Engine, engine = cqeval.Auto(), "auto"
						}
						res, err := p.Solve(context.Background(), d, opts)
						if err != nil {
							t.Fatalf("%s P=%d: %v", name, par, err)
						}
						got := encodeDigest(t, mode, engine, res.Answers)
						if got != want {
							t.Errorf("%s P=%d: body digest %s (%d answers), want %s", name, par, got, len(res.Answers), want)
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
