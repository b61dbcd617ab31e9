// Package core exercises the R5 doc-comment rule.
package core

// Documented carries a doc comment.
func Documented() {}

func Undocumented() {} // want R5

// Thing is documented.
type Thing struct{}

type Widget struct{} // want R5

// Limit is documented.
const Limit = 1

const Budget = 2 // want R5

var Verbose bool // want R5

// Grouped declarations share the declaration doc comment; exempt.
var (
	GroupedA = 1
	GroupedB = 2
)

//lint:ignore R5 fixture: the name is self-describing
func Tolerated() {}

// Counter is documented; its exported methods are checked individually.
type Counter struct{ n int }

// Add is documented.
func (c *Counter) Add() { c.n++ }

func (c *Counter) Len() int { return c.n } // want R5

type hidden struct{}

func (h hidden) Exported() {}
