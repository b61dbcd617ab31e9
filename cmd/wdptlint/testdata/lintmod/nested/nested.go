// Package nested is a separate module inside the fixture module. "./..."
// stops at its go.mod, so the R1 violation below carries no want marker and
// must stay silent.
package nested

// Values collects map values in iteration order.
func Values(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
