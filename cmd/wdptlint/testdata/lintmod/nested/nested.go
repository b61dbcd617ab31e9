// Package nested is a separate module inside the fixture module. "./..."
// stops at its go.mod, so the R2 violation below carries no want marker and
// must stay silent.
package nested

// Boom panics in a library package.
func Boom() {
	panic("nested module: never linted from the outer module")
}
