package main

import "go/types"

// lintWholeProgram runs R10's call-graph half over the loaded closure and
// returns findings restricted to the selected packages. Unlike the per-file
// rules, it reasons along the type-resolved cross-package call graph, so a
// context dropped two calls above a sink is caught across package
// boundaries.
func lintWholeProgram(l *loader, selected []*lintPkg) []Finding {
	g := buildCallGraph(l, l.closure())
	selectedRel := make(map[string]bool, len(selected))
	for _, p := range selected {
		selectedRel[p.rel] = true
	}
	return lintContextReach(g, selectedRel)
}

// ---------------------------------------------------------------------------
// R10 — context propagation (whole-program half).
//
// A budget's wall-clock limit and a caller's cancellation both travel down
// the evaluation stack as a context (or as the meter/pool values derived
// from one at the Solve boundary). A function that transitively reaches a
// cancellable sink — a worker-pool fan-out, a guard meter check, an index
// scan, an outbound HTTP call — but accepts no way to thread cancellation
// is a function whose work a budget trip cannot stop: the classic dropped
// ctx two calls above the sink. The substrate packages that *implement*
// cancellation (par, guard, db, obs) are exempt. Propagation stops at a
// carrier: once some function on the path
// can thread cancellation, it is the cancellation boundary, and callers
// above it are not implicated through that path.

// r10ExemptPkgs are the cancellation substrate: they implement the sinks
// rather than consuming them.
var r10ExemptPkgs = map[string]bool{
	"internal/par":   true,
	"internal/guard": true,
	"internal/db":    true,
	"internal/obs":   true,
}

// cancellableSink classifies call targets that end a cancellation chain.
func (g *callGraph) cancellableSink(fn *types.Func) string {
	switch {
	case g.fnMatches(fn, "internal/par", "Pool", "Run"):
		return "par.(*Pool).Run"
	case g.fnMatches(fn, "internal/par", "", "Map"):
		return "par.Map"
	case g.fnMatches(fn, "internal/guard", "Meter", "ChargeTuples"),
		g.fnMatches(fn, "internal/guard", "Meter", "Checkpoint"),
		g.fnMatches(fn, "internal/guard", "Meter", "TryAnswer"):
		return "guard.(*Meter)." + fn.Name()
	case g.fnMatches(fn, "internal/db", "Relation", "MatchingIDs"):
		return "db.(*Relation).MatchingIDs"
	case g.fnMatches(fn, "net/http", "Client", "Do"),
		g.fnMatches(fn, "net/http", "", "Get"),
		g.fnMatches(fn, "net/http", "", "Post"),
		g.fnMatches(fn, "net/http", "", "PostForm"),
		g.fnMatches(fn, "net/http", "", "Head"):
		return "net/http." + fn.Name()
	}
	return ""
}

func lintContextReach(g *callGraph, selectedRel map[string]bool) []Finding {
	reach := g.reachable(g.cancellableSink, g.carriesCancellation)
	var out []Finding
	for _, fn := range g.sortedDecls() {
		site := g.decls[fn]
		if !selectedRel[site.pkg.rel] || !isInternalPkg(site.pkg.rel) || r10ExemptPkgs[site.pkg.rel] {
			continue
		}
		info, ok := reach[fn]
		if !ok {
			continue
		}
		if g.carriesCancellation(fn) {
			continue
		}
		out = append(out, g.l.finding(site.decl.Name.Pos(), "R10",
			"%s reaches cancellable sink %s (%s) but accepts no context.Context, *guard.Meter, *par.Pool, or carrier type: a budget trip cannot stop this work",
			g.funcID(fn), info.sink, g.witnessChain(fn, reach, 6)))
	}
	return out
}
