package cq

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"wdpt/internal/db"
)

// sortInput returns n distinct answers over mixed domains — every
// non-empty subset of four variables, as the root subtrees of a pattern
// tree give — in canonical order.
func sortInput(n int) []Mapping {
	vars := []string{"x", "x1", "y", "z"}
	out := make([]Mapping, 0, n)
	for i := 0; len(out) < n; i++ {
		h := Mapping{}
		for j, v := range vars {
			if (i%15+1)&(1<<j) != 0 {
				h[v] = fmt.Sprintf("c%d", (i/15+j)%97)
			}
		}
		h[vars[i%15%4]] = fmt.Sprintf("u%d", i)
		out = append(out, h)
	}
	return SortSolutions(out)
}

// SortSolutions allocation ceilings on 3 000 mixed-domain answers, as a
// seeded shuffle and as already-sorted input. Each ceiling is the measured
// value plus at most 10 % headroom (go1.24, linux/amd64, with and without
// -race); a change may lower a ceiling but must never raise one. Readings
// the ceilings were set from: shuffled 86 516 and sorted 7 316 while every
// comparison built both domains, then 2 or 3 for either input since each
// answer's key is built once into one shared backing array. Sorted input,
// 3 000 or 1 000 answers, now reads 0: it is checked pairwise on domains
// sorted on the stack, and no key is built.
func TestSortSolutionsAllocationCeilings(t *testing.T) {
	sorted := sortInput(3000)
	shuffled := append([]Mapping(nil), sorted...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	work := make([]Mapping, len(sorted))
	for _, tc := range []struct {
		name    string
		input   []Mapping
		ceiling float64
	}{
		{"shuffled", shuffled, 3},
		{"sorted", sorted, 0},
		{"sorted 1 000", sorted[:1000], 0},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			copy(work, tc.input)
			SortSolutions(work[:len(tc.input)])
		})
		t.Logf("%s: %.0f allocs (ceiling %.0f)", tc.name, allocs, tc.ceiling)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocs per SortSolutions, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}

// randomSolutions draws n answers that stress the canonical order: equal
// domains, strict-prefix domains and duplicates, variable names that are
// prefixes of one another, and values holding "\x00", "=" and "?".
func randomSolutions(rng *rand.Rand, n int) []Mapping {
	names := []string{"x", "x1", "x\x00", "y", "="}
	values := []string{"", "a", "a\x00", "a\x00b", "=", "?x", "x", "b"}
	out := make([]Mapping, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(5) == 0 {
			out = append(out, out[rng.Intn(len(out))].Clone()) // a duplicate
			continue
		}
		h := Mapping{}
		for _, v := range names[:1+rng.Intn(len(names))] {
			if rng.Intn(3) > 0 {
				h[v] = values[rng.Intn(len(values))]
			}
		}
		out = append(out, h)
	}
	return out
}

// sameIdentities reports whether two lists hold the very same maps in the
// same order — equal content is not enough, so stability is checked too.
func sameIdentities(a, b []Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if reflect.ValueOf(a[i]).UnsafePointer() != reflect.ValueOf(b[i]).UnsafePointer() {
			return false
		}
	}
	return true
}

// TestSortSolutionsMatchesCompareMappings: the keyed sort puts every list
// in exactly the order of a stable sort by CompareMappings, duplicates
// keeping their input order, and leaves sorted input as it is.
func TestSortSolutionsMatchesCompareMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		input := randomSolutions(rng, 1+rng.Intn(40))
		want := append([]Mapping(nil), input...)
		sort.SliceStable(want, func(i, j int) bool { return CompareMappings(want[i], want[j]) < 0 })
		got := SortSolutions(append([]Mapping(nil), input...))
		if !sameIdentities(got, want) {
			t.Fatalf("trial %d: SortSolutions order\n%q\nwant\n%q", trial, got, want)
		}
		if again := SortSolutions(append([]Mapping(nil), got...)); !sameIdentities(again, got) {
			t.Fatalf("trial %d: sorting sorted input moved answers\n%q\nwant\n%q", trial, again, got)
		}
	}
}

// distinctSorted returns the distinct answers of sols in canonical order,
// as one Solve returns them.
func distinctSorted(sols []Mapping) []Mapping {
	set := NewMappingSet()
	for _, h := range sols {
		set.Add(h)
	}
	return set.All()
}

// rowKeysOf encodes answers as SortRows' flat ID rows over the sorted
// union of their domains, interning every value in a fresh dictionary in
// first-seen order (so IDs do not compare as terms), and returns the
// rows' RowKeys.
func rowKeysOf(sols []Mapping) [][]string {
	var vars []string
	for _, h := range sols {
		vars = append(vars, h.Domain()...)
	}
	slices.Sort(vars)
	vars = slices.Compact(vars)
	dict := db.NewDict()
	ids := make([]uint32, 0, len(sols)*len(vars))
	for _, h := range sols {
		for _, v := range vars {
			id := db.NoID
			if c, ok := h[v]; ok {
				id = dict.Intern(c)
			}
			ids = append(ids, id)
		}
	}
	return RowKeys(vars, ids, len(sols), dict)
}

// maximalOf returns, in order, the answers no other answer properly
// subsumes, testing every pair with properlySubsumed.
func maximalOf(sols []Mapping) []Mapping {
	var out []Mapping
	for _, h := range sols {
		if !slices.ContainsFunc(sols, func(hp Mapping) bool { return properlySubsumed(h, hp) }) {
			out = append(out, h)
		}
	}
	return out
}

// TestMergeKeysMatchesMappingSet: merging the RowKeys of several sorted
// answer lists gives exactly the canonical order of their union, and with
// maximal set exactly its answers no other properly subsumes — over lists
// that share answers, have equal, nested and disjoint domains, and hold
// "\x00", "=" and "?" in names and values.
func TestMergeKeysMatchesMappingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		lists := make([][]Mapping, rng.Intn(4))
		union := NewMappingSet()
		for i := range lists {
			lists[i] = distinctSorted(randomSolutions(rng, rng.Intn(12)))
			for _, h := range lists[i] {
				union.Add(h)
			}
		}
		keys := make([][][]string, len(lists))
		for i, l := range lists {
			keys[i] = rowKeysOf(l)
		}
		for _, maximal := range []bool{false, true} {
			var got []Mapping
			for _, r := range MergeKeys(keys, maximal) {
				got = append(got, lists[r.List][r.Index])
			}
			want := union.All()
			if maximal {
				want = maximalOf(want)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d maximal=%v: merged %d answers, want %d\n%q\nwant\n%q", trial, maximal, len(got), len(want), got, want)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d maximal=%v: answer %d is %v, want %v", trial, maximal, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMaximalKeysMatchesProperSubsumption: the key-level ⊏ filter keeps
// exactly the answers that no other answer properly subsumes by
// properlySubsumed.
func TestMaximalKeysMatchesProperSubsumption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		sols := distinctSorted(randomSolutions(rng, 1+rng.Intn(20)))
		var want []int
		for i, h := range sols {
			dominated := false
			for j, hp := range sols {
				if i != j && properlySubsumed(h, hp) {
					dominated = true
				}
			}
			if !dominated {
				want = append(want, i)
			}
		}
		if got := maximalKeys(rowKeysOf(sols)); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: maximalKeys kept %v, want %v over %q", trial, got, want, sols)
		}
	}
}
