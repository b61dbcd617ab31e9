package wdpt_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/guard"
	"wdpt/internal/sparql"
)

// truncationPins maps "<case>/<engine>/cap<n>" to the body digest and the
// answer count of an enumeration cut at Budget.MaxAnswers = n (0: no cap)
// at Parallelism 1. Under a cap, which answers survive depends on the
// order expansion visits the root candidates and each unit's extensions:
// the order of the prepared queries' rows, which every engine sorts
// canonically (TestTruncationOrderAgrees). The "naive" entries solve with
// no engine, on cqeval.Naive().
// The "unsealed" case solves over a cloned database, whose dictionary
// assigns IDs in insertion order rather than term order.
var truncationPins = map[string]string{
	"path_d5/auto/cap1":    "1 fa52cd773a43be159dc01383c8891b9657eebeb4a7212280be562214396c24d7",
	"path_d5/auto/cap50":   "50 b3c8d0764c9b4014c0e9cdf1db7e8b372d4bd247078b31037b6a23b711fb43ed",
	"path_d5/naive/cap1":   "1 b8015906448e3d8dc4ebf7fd411a4528fc6d90d7b40bc0f5b651cec48932f2db",
	"path_d5/naive/cap50":  "50 e90cd97dd5fc871fdeed916a7e546852ec44db0b8edd5353924636d6dbe71c2f",
	"union0/auto/cap1":     "1 8716c7bc6bfc7692a2dbd9a520e0a5ed8b18eb95ba464683dd3c1c42d87d9e5e",
	"union0/auto/cap50":    "50 30d2f3ef79bb1b1b78bc85ce430320a505c9f13cab2965a181fe573255028d46",
	"union0/naive/cap1":    "1 3d6d598442ee5dabb740d1fbab0ecec2e54041c01f078120eb8894c700aaa6f8",
	"union0/naive/cap50":   "50 4908e4a1d53a1e3e7e783edc7fed68ff4df9ff06c58f411b0fb6a86d205e60cb",
	"unsealed/auto/cap0":   "193 fac4bf65deb074bf3380525bf1080558ab6a1a38516296ae2e4be0b06b6313cf",
	"unsealed/auto/cap1":   "1 8716c7bc6bfc7692a2dbd9a520e0a5ed8b18eb95ba464683dd3c1c42d87d9e5e",
	"unsealed/auto/cap50":  "50 c2cf38041066583c7a4872c9be0602291d6969b0df4c6c78925fbe210f1581f0",
	"unsealed/naive/cap0":  "193 ea0e3462b0b3368f3d7a1ed1748c073c8cf2972d0f499aa818122c5f5fd4177f",
	"unsealed/naive/cap1":  "1 3d6d598442ee5dabb740d1fbab0ecec2e54041c01f078120eb8894c700aaa6f8",
	"unsealed/naive/cap50": "50 15711ace606e3e2eb400bec1c1f9f6320905dc400d9bd9cfa9d2a2d0533c8e5b",
}

// truncationCase is one input of the truncation tests: a tree, a database
// and the answer caps TestTruncationPins pins.
type truncationCase struct {
	name string
	tree *core.PatternTree
	d    *db.Database
	caps []int
}

// truncationCases returns the path_d5, union0 and unsealed inputs.
func truncationCases(t *testing.T) []truncationCase {
	t.Helper()
	u, err := sparql.ParseUnionQuery(unionPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	music := gen.MusicDatabaseLarge(500, 6, 1)
	unsealed := gen.MusicDatabaseLarge(60, 6, 1).Clone()
	if unsealed.Dict().Sorted() {
		t.Fatal("the cloned database's dictionary is in term order; the unsealed case needs one that is not")
	}
	return []truncationCase{
		{"path_d5", gen.PathWDPT(5, "y0", "y2"), gen.LayeredDatabase(6, 32, 3, 1), []int{1, 50}},
		{"union0", u.Trees()[0], music, []int{1, 50}},
		{"unsealed", u.Trees()[0], unsealed, []int{0, 1, 50}},
	}
}

func TestTruncationPins(t *testing.T) {
	for _, c := range truncationCases(t) {
		for _, engine := range []string{"auto", "naive"} {
			for _, max := range c.caps {
				name := fmt.Sprintf("%s/%s/cap%d", c.name, engine, max)
				opts := core.SolveOptions{Mode: core.ModeEnumerate, Parallelism: 1, Budget: guard.Budget{MaxAnswers: int64(max)}, Fallback: true}
				if engine == "auto" {
					opts.Engine = cqeval.Auto()
				}
				res, err := c.tree.Solve(context.Background(), c.d, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if max > 0 && (!res.Degraded || len(res.Answers) != max) {
					t.Errorf("%s: %d answers, degraded %v; want %d, truncated", name, len(res.Answers), res.Degraded, max)
				}
				got := fmt.Sprintf("%d %s", len(res.Answers), encodeDigest(t, core.ModeEnumerate, engine, res.Answers))
				if want := truncationPins[name]; got != want {
					t.Errorf("%s: got %q, want %q", name, got, want)
				}
			}
		}
	}
}

// TestTruncationOrderAgrees: under an answer cap, an enumeration that names
// no engine and one on each engine of cqeval.ByName keep the same answers,
// at Parallelism 1 on every truncation case, caps 1 and 50.
func TestTruncationOrderAgrees(t *testing.T) {
	for _, c := range truncationCases(t) {
		for _, max := range []int{1, 50} {
			var want []cq.Mapping
			for _, engine := range []string{"", "auto", "naive", "yannakakis", "decomposition", "hypertree"} {
				opts := core.SolveOptions{Mode: core.ModeEnumerate, Parallelism: 1, Budget: guard.Budget{MaxAnswers: int64(max)}, Fallback: true}
				if engine != "" {
					eng, err := cqeval.ByName(engine)
					if err != nil {
						t.Fatal(err)
					}
					opts.Engine = eng
				}
				res, err := c.tree.Solve(context.Background(), c.d, opts)
				if err != nil {
					t.Fatalf("%s/%q/cap%d: %v", c.name, engine, max, err)
				}
				if engine == "" {
					want = res.Answers
				} else if !slices.EqualFunc(res.Answers, want, cq.Mapping.Equal) {
					t.Errorf("%s/cap%d: %s keeps other answers than the nil engine", c.name, max, engine)
				}
			}
		}
	}
}
