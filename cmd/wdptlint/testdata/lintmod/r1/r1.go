// Package r1 exercises the R1 map-order rule.
package r1

import (
	"fmt"
	"io"
	"sort"
)

// Values collects map values in iteration order.
func Values(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want R1
	}
	return out
}

// Dump writes map entries in iteration order.
func Dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want R1
	}
}

// Keys uses the canonical sorted-keys idiom, which is exempt.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Local ranges into a slice declared inside the loop body, which is
// per-iteration state and therefore exempt.
func Local(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var row []int
		row = append(row, vs...)
		total += len(row)
	}
	return total
}

// Suppressed documents why the unsorted iteration is safe.
func Suppressed(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) //lint:ignore R1 callers treat the result as an unordered set
	}
	return out
}

// Unreasoned shows that a directive without a reason suppresses nothing.
func Unreasoned(m map[string]int) []int {
	var out []int
	for _, v := range m {
		//lint:ignore R1
		out = append(out, v) // want R1
	}
	return out
}

// Retired carries a directive for a rule wdptlint does not implement: it
// suppresses nothing, so it is reported instead of left behind.
func Retired() int {
	//lint:ignore R2 panics encode documented contracts // want ignore
	return 0
}
