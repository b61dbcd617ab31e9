// Package r10 exercises the whole-program half of rule R10: the planted
// violation drops the context two calls above the pool sink, and the
// call-graph analysis catches it across the package boundary.
package r10

import (
	"context"

	"lintmod/internal/r10/mid"
)

// Top is the planted violation: it accepts no carrier, but the work two
// frames down fans out on the pool — a budget trip cannot stop it.
func Top() { // want R10
	mid.Step()
}

// TopCtx threads the caller's context; every hop to the sink carries, so
// both frames are clean.
func TopCtx(ctx context.Context) {
	mid.StepCtx(ctx)
}

// AboveCarrier calls only the carrying middle frame: propagation stopped at
// StepCtx, so this frame is not implicated through the graph — but minting
// the fresh context is the per-file half's finding.
func AboveCarrier() {
	mid.StepCtx(context.TODO()) // want R10
}

// Default is the nil-defaulting guard at a public boundary; exempt.
func Default(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

//lint:ignore R10 fixture: scheduled for the next carrier refactor
func Suppressed() {
	mid.Step()
}
