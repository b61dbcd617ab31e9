package cq_test

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"wdpt/internal/approx"
	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/gen"
	"wdpt/internal/subsume"
)

// allPairsMaximal is the reference for cq.Frontier: an item is kept unless
// some other item lies strictly above it, or an equivalent item comes
// before it. It compares every ordered pair.
func allPairsMaximal[T any](items []T, leq func(a, b T) (bool, error)) ([]T, error) {
	var out []T
	for i, x := range items {
		maximal := true
		for j, y := range items {
			if i == j {
				continue
			}
			below, err := leq(x, y)
			if err != nil {
				return nil, err
			}
			if !below {
				continue
			}
			above, err := leq(y, x)
			if err != nil {
				return nil, err
			}
			if !above || j < i {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, x)
		}
	}
	return out, nil
}

// maskItem is a bitmask ordered by ⊆; id tells apart equal masks, which
// form an equivalence class.
type maskItem struct {
	id   int
	mask uint
}

func subset(a, b maskItem) (bool, error) { return a.mask&^b.mask == 0, nil }

// randomMasks draws n items over w bits in one of three shapes: masks from
// a small pool (duplicates and incomparable pairs), a chain of prefixes,
// or an antichain of masks with ⌊w/2⌋ bits set.
func randomMasks(rng *rand.Rand, n, w int) []maskItem {
	var pool []uint
	switch rng.Intn(3) {
	case 0:
		for i := 0; i < 1+rng.Intn(8); i++ {
			pool = append(pool, uint(rng.Intn(1<<w)))
		}
	case 1:
		for i := 0; i <= w; i++ {
			pool = append(pool, 1<<i-1)
		}
	default:
		for m := uint(0); m < 1<<w; m++ {
			if bits.OnesCount(m) == w/2 {
				pool = append(pool, m)
			}
		}
	}
	items := make([]maskItem, n)
	for i := range items {
		items[i] = maskItem{id: i, mask: pool[rng.Intn(len(pool))]}
	}
	return items
}

// binomial is the width of the ⊆ order on w bits (Sperner): no antichain,
// and so no frontier, is larger than C(w, ⌊w/2⌋).
func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// TestFrontierMatchesAllPairs: on random preorders with equivalence
// classes, chains and antichains, the frontier keeps the items the
// all-pairs reference keeps, in the same order, and never tests more than
// 2·n·width pairs.
func TestFrontierMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		w := 1 + rng.Intn(6)
		items := randomMasks(rng, rng.Intn(40), w)
		calls := 0
		got, err := cq.Frontier(items, func(a, b maskItem) (bool, error) {
			calls++
			return subset(a, b)
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := allPairsMaximal(items, subset)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Frontier(%v) = %v, want %v", trial, items, got, want)
		}
		if bound := 2 * len(items) * binomial(w, w/2); calls > bound {
			t.Fatalf("trial %d: %d leq calls on %d items of width %d, want ≤ %d", trial, calls, len(items), w, bound)
		}
	}
}

// TestFrontierChainsAndErrors: a rising chain costs two tests per item and
// keeps the top, a falling chain one test per item and keeps the head; the
// first leq error is returned unchanged.
func TestFrontierChainsAndErrors(t *testing.T) {
	const n = 10
	var rising, falling []maskItem
	for i := 0; i < n; i++ {
		rising = append(rising, maskItem{i, 1<<i - 1})
		falling = append(falling, maskItem{i, 1<<(n-i) - 1})
	}
	for _, c := range []struct {
		name  string
		items []maskItem
		keep  int
		calls int
	}{
		{"rising", rising, n - 1, 2 * (n - 1)},
		{"falling", falling, 0, n - 1},
	} {
		calls := 0
		got, err := cq.Frontier(c.items, func(a, b maskItem) (bool, error) {
			calls++
			return subset(a, b)
		})
		if err != nil || len(got) != 1 || got[0].id != c.keep || calls != c.calls {
			t.Errorf("%s: Frontier = %v, %v after %d calls; want [item %d] after %d", c.name, got, err, calls, c.keep, c.calls)
		}
	}
	boom := errors.New("boom")
	calls := 0
	got, err := cq.Frontier(rising, func(a, b maskItem) (bool, error) {
		if calls++; calls == 5 {
			return false, boom
		}
		return subset(a, b)
	})
	if err != boom || got != nil || calls != 5 {
		t.Errorf("Frontier = %v, %v after %d calls; want nil, boom after 5", got, err, calls)
	}
}

// TestFrontierOnApproximationCandidates compares the frontier with the
// reference on the verified WB(1) candidates of the approximation
// experiments' trees, ordered by subsumption, with rooted-subtree
// candidates included.
func TestFrontierOnApproximationCandidates(t *testing.T) {
	optTriangle := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("V", cq.V("x"))},
		Children: []core.NodeSpec{{Atoms: []cq.Atom{
			cq.NewAtom("E", cq.V("x"), cq.V("y")),
			cq.NewAtom("E", cq.V("y"), cq.V("z")),
			cq.NewAtom("E", cq.V("z"), cq.V("x")),
		}}},
	}, []string{"x", "y", "z"})
	twoLevel := core.MustNew(core.NodeSpec{
		Atoms: []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("a")), cq.NewAtom("E", cq.V("a"), cq.V("b")), cq.NewAtom("E", cq.V("b"), cq.V("x"))},
		Children: []core.NodeSpec{{Atoms: []cq.Atom{
			cq.NewAtom("E", cq.V("x"), cq.V("y")),
			cq.NewAtom("E", cq.V("y"), cq.V("c")),
			cq.NewAtom("E", cq.V("c"), cq.V("x")),
		}}},
	}, []string{"x", "y"})
	ctx := context.Background()
	leq := func(a, b *core.PatternTree) (bool, error) { return subsume.Subsumes(ctx, a, b, subsume.Options{}) }
	for _, tc := range []struct {
		name string
		p    *core.PatternTree
	}{
		{"optional-triangle", optTriangle},
		{"two-triangles", twoLevel},
		{"triangle-path-2", gen.TriangleWithPath(2)},
		{"directed-cycle-4", gen.DirectedCycleTree(4)},
	} {
		var members []*core.PatternTree
		var err error
		approx.Candidates(tc.p, approx.Options{Prune: true}, func(cand *core.PatternTree) bool {
			var ok bool
			if approx.InWB(cand, approx.WB(1)) {
				ok, err = leq(cand, tc.p)
			}
			if ok {
				members = append(members, cand)
			}
			return err == nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cq.Frontier(members, leq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := allPairsMaximal(members, leq)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: frontier of %d candidates = %v, want %v", tc.name, len(members), got, want)
		}
		t.Logf("%s: %d verified candidates, %d maximal", tc.name, len(members), len(got))
	}
}
