// Package cqeval exercises R15: the evaluation kernels must stay ID-native,
// so a map[string] probe inside a loop must not build its key per row.
package cqeval

// HotConcatProbe builds a separator-joined string key per row — the exact
// collision-prone pattern the packed-key idiom replaced.
func HotConcatProbe(seen map[string]bool, rows [][]string) int {
	n := 0
	for _, row := range rows {
		if seen[row[0]+"\x00"+row[1]] { // want R15
			n++
		}
	}
	return n
}

// PackedProbe is the sanctioned idiom: a reused []byte packed key probed
// through the allocation-free string conversion; clean.
func PackedProbe(seen map[string]bool, rows [][]byte) int {
	n := 0
	for _, row := range rows {
		if seen[string(row)] {
			n++
		}
	}
	return n
}

// ColdKeyBuild builds a string key outside any loop; clean.
func ColdKeyBuild(seen map[string]bool, a, b string) bool {
	return seen[a+"|"+b]
}

// SuppressedLegacy documents a reviewed cold-path string probe inline.
func SuppressedLegacy(seen map[string]bool, rows [][]string) int {
	n := 0
	for _, row := range rows {
		//lint:ignore R15 fixture: cold path, rows bounded by the fixture
		if seen[row[0]+"|"+row[1]] {
			n++
		}
	}
	return n
}
