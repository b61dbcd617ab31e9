package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/gen"
	"wdpt/internal/sparql"
)

// TestUnitKeyFixesShape checks the argument on Solve's prepared-unit key:
// over every rooted subtree of each tree, two extension units filed under
// the same (first, last) node pair have the same atoms, bound variables
// and kept variables, so preparing a unit once per key loses nothing.
func TestUnitKeyFixesShape(t *testing.T) {
	band, err := sparql.ParseQuery("SELECT ?x ?z ?zp WHERE (recorded_by(?x, band7) OPT (published(?x, after_2010) AND rating(?x, ?z))) OPT formed_in(band7, ?zp)")
	if err != nil {
		t.Fatal(err)
	}
	trees := map[string]*core.PatternTree{
		"figure1": gen.MusicWDPT("x", "y", "z", "zp"),
		"band":    band,
		"star3":   gen.StarWDPT(3),
		"path4":   gen.PathWDPT(4),
	}
	tp := gen.TreeParams{MaxDepth: 3, MaxChildren: 2, InterfaceBound: 2}
	for seed := int64(1); seed <= 200; seed++ {
		trees[fmt.Sprintf("random%d", seed)] = gen.RandomWDPT(tp, seed)
	}
	shared := 0
	for name, p := range trees {
		seen := make(map[[2]int]core.UnitShape)
		p.EnumerateSubtrees(func(s core.Subtree) bool {
			for _, u := range p.ExtensionUnitShapes(s) {
				key := [2]int{u.First, u.Last}
				prev, ok := seen[key]
				if !ok {
					seen[key] = u
					continue
				}
				shared++
				if !reflect.DeepEqual(prev, u) {
					t.Errorf("%s: units keyed %v differ:\n%+v\n%+v", name, key, prev, u)
				}
			}
			return true
		})
	}
	if shared == 0 {
		t.Fatal("no unit was reached from two subtrees")
	}
	t.Logf("%d units shared a key with an earlier subtree's unit", shared)
}
