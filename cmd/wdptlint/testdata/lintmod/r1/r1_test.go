package r1

import "testing"

// No rule runs on test files, so a directive here suppresses nothing and
// is reported.
func TestValues(t *testing.T) {
	m := map[string]int{"a": 1}
	var out []int
	for _, v := range m {
		//lint:ignore R1 a test may range in any order // want ignore
		out = append(out, v)
	}
	// A comment that only mentions lint:ignore is not a directive.
	if len(out) != 1 {
		t.Fatal(out)
	}
}
