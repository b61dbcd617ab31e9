// Package cqeval exercises R13: tuple loops in the evaluation kernels must
// reach the guard meter through the call graph, or carry a reasoned
// //lint:ignore R13.
package cqeval

import (
	"lintmod/internal/cq"
	"lintmod/internal/db"
	"lintmod/internal/guard"
)

// Unmetered loops over candidate mappings with no path to the meter.
func Unmetered(ms []cq.Mapping) int {
	n := 0
	for range ms { // want R13
		n++
	}
	return n
}

// Metered charges the loop's tuples before scanning; clean.
func Metered(m *guard.Meter, ms []cq.Mapping) int {
	m.ChargeTuples(int64(len(ms)))
	n := 0
	for range ms {
		n++
	}
	return n
}

// charge is the indirect metering helper.
func charge(m *guard.Meter, n int) { m.ChargeTuples(int64(n)) }

// MeteredIndirect reaches the meter through a helper call, over a
// len()-bounded for loop; call-graph reachability sees through both.
func MeteredIndirect(m *guard.Meter, ts []db.Tuple) int {
	charge(m, len(ts))
	total := 0
	for i := 0; i < len(ts); i++ {
		total += len(ts[i])
	}
	return total
}

// SuppressedScan documents a reviewed unmetered scan inline.
func SuppressedScan(ms []cq.Mapping) int {
	n := 0
	//lint:ignore R13 fixture: bounded by the fixture's own input
	for range ms {
		n++
	}
	return n
}

// The R15 cases: kernels must stay ID-native. Loops below iterate plain
// string slices (not []db.Tuple / []cq.Mapping) so R13 stays out of frame.

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

// SameRow compares tuple components as strings inside the loop.
func SameRow(a, b db.Tuple) bool {
	for i := range a {
		if a[i] != b[i] { // want R15
			return false
		}
	}
	return true
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
