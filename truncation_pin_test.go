package wdpt_test

import (
	"context"
	"fmt"
	"testing"

	"wdpt/internal/core"
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
// on an engine, the order of the prepared queries' rows; on the
// engine-less arm, the backtracking search's. These pins fix both orders.
// The "unsealed" case solves over a cloned database, whose dictionary
// assigns IDs in insertion order rather than term order.
var truncationPins = map[string]string{
	"path_d5/auto/cap1":    "1 fa52cd773a43be159dc01383c8891b9657eebeb4a7212280be562214396c24d7",
	"path_d5/auto/cap50":   "50 b3c8d0764c9b4014c0e9cdf1db7e8b372d4bd247078b31037b6a23b711fb43ed",
	"path_d5/naive/cap1":   "1 c1971109f68055bd672ea94c8d27d81671f43006f71e97fcafbb535c770e0fbd",
	"path_d5/naive/cap50":  "50 66f04535212df601148695a7a30acbe19473ef6c9d72a8eba17147861fa41599",
	"union0/auto/cap1":     "1 8716c7bc6bfc7692a2dbd9a520e0a5ed8b18eb95ba464683dd3c1c42d87d9e5e",
	"union0/auto/cap50":    "50 30d2f3ef79bb1b1b78bc85ce430320a505c9f13cab2965a181fe573255028d46",
	"union0/naive/cap1":    "1 3d6d598442ee5dabb740d1fbab0ecec2e54041c01f078120eb8894c700aaa6f8",
	"union0/naive/cap50":   "50 63b376673664a31a79ab345275ab6d623f4ef024cd4a690bdeaf80105fe6d782",
	"unsealed/auto/cap0":   "193 fac4bf65deb074bf3380525bf1080558ab6a1a38516296ae2e4be0b06b6313cf",
	"unsealed/auto/cap1":   "1 8716c7bc6bfc7692a2dbd9a520e0a5ed8b18eb95ba464683dd3c1c42d87d9e5e",
	"unsealed/auto/cap50":  "50 c2cf38041066583c7a4872c9be0602291d6969b0df4c6c78925fbe210f1581f0",
	"unsealed/naive/cap0":  "193 ea0e3462b0b3368f3d7a1ed1748c073c8cf2972d0f499aa818122c5f5fd4177f",
	"unsealed/naive/cap1":  "1 3d6d598442ee5dabb740d1fbab0ecec2e54041c01f078120eb8894c700aaa6f8",
	"unsealed/naive/cap50": "50 63b376673664a31a79ab345275ab6d623f4ef024cd4a690bdeaf80105fe6d782",
}

func TestTruncationPins(t *testing.T) {
	u, err := sparql.ParseUnionQuery(unionPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	music := gen.MusicDatabaseLarge(500, 6, 1)
	unsealed := gen.MusicDatabaseLarge(60, 6, 1).Clone()
	if unsealed.Dict().Sorted() {
		t.Fatal("the cloned database's dictionary is in term order; the unsealed case needs one that is not")
	}
	cases := []struct {
		name string
		tree *core.PatternTree
		d    *db.Database
		caps []int
	}{
		{"path_d5", gen.PathWDPT(5, "y0", "y2"), gen.LayeredDatabase(6, 32, 3, 1), []int{1, 50}},
		{"union0", u.Trees()[0], music, []int{1, 50}},
		{"unsealed", u.Trees()[0], unsealed, []int{0, 1, 50}},
	}
	for _, c := range cases {
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
