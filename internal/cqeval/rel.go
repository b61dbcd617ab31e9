// Package cqeval provides evaluation engines for conjunctive queries: one
// plan engine that either fills a single bag by backtracking search (the
// naive baseline) or runs the Yannakakis algorithm over a tree of bag
// relations shaped by a join tree (acyclic CQs, Theorem 3 substrate), a
// tree decomposition (bounded treewidth, Theorem 2 substrate) or a
// generalized hypertree decomposition. All engines expose the same
// operations — satisfiability and projection under a partial pre-binding —
// exactly the primitives the WDPT algorithms of Section 3 need.
package cqeval

import (
	"slices"
	"sort"

	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// varRel is a materialized relation over a set of variables: row-major
// dictionary-encoded rows of width len(vars), aligned with the sorted vars
// list. A component of db.NoID means the row does not bind that variable
// (the legacy mapping-based representation simply omitted it). Strings
// appear only when the final answer rows are emitted.
type varRel struct {
	vars []string
	w    int
	data []uint32
	n    int
}

// setData installs a flat row set produced by a bag search
// (cq.Searcher.ProjectIDs).
func (r *varRel) setData(data []uint32) {
	r.data = data
	if r.w > 0 {
		r.n = len(data) / r.w
	}
}

func (r *varRel) row(i int) []uint32 { return r.data[i*r.w : (i+1)*r.w] }

// appendKeyAt appends the packed key of row i restricted to the given
// positions.
func (r *varRel) appendKeyAt(dst []byte, i int, pos []int) []byte {
	base := i * r.w
	for _, p := range pos {
		id := r.data[base+p]
		dst = append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst
}

// varPositions returns the positions in vars of each variable of sub.
// Both lists are sorted and sub ⊆ vars.
func varPositions(vars, sub []string) []int {
	out := make([]int, len(sub))
	j := 0
	for i, v := range sub {
		for vars[j] != v {
			j++
		}
		out[i] = j
	}
	return out
}

// sharedVars returns the sorted intersection of two sorted var lists.
func sharedVars(a, b []string) []string {
	set := make(map[string]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	var out []string
	for _, v := range a {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

// unionVars returns the sorted union of two var lists.
func unionVars(a, b []string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// mergeJoinMinRows is the semijoin algorithm-selection threshold: when
// either side holds fewer rows, sorting cannot pay for itself and the pass
// runs as a hash-set filter; at or above it, both sides' shared-key
// projections are sorted once and a single linear merge marks the
// surviving rows (see docs/STORAGE.md, "Merge-join selection rule").
const mergeJoinMinRows = 16

// semijoin keeps the rows of r that agree with some row of s on the shared
// variables, at positions pr in r and ps in s, in place and in their
// original order. Merge passes are recorded on st.
func (r *varRel) semijoin(s *varRel, pr, ps []int, st *obs.Stats) {
	if len(pr) == 0 {
		if s.n == 0 {
			r.data, r.n = nil, 0
		}
		return
	}
	if r.n == 0 {
		return
	}
	if r.n < mergeJoinMinRows || s.n < mergeJoinMinRows {
		keys := make(map[string]bool, s.n)
		var buf []byte
		for j := 0; j < s.n; j++ {
			buf = s.appendKeyAt(buf[:0], j, ps)
			keys[string(buf)] = true
		}
		out := r.data[:0]
		n := 0
		for i := 0; i < r.n; i++ {
			buf = r.appendKeyAt(buf[:0], i, pr)
			if keys[string(buf)] {
				out = append(out, r.row(i)...)
				n++
			}
		}
		r.data, r.n = out, n
		return
	}
	st.Inc(obs.CtrMergeJoinPasses)
	st.Add(obs.CtrMergeJoinRows, int64(r.n+s.n))
	rp := r.sortedPerm(pr)
	sp := s.sortedPerm(ps)
	keep := make([]bool, r.n)
	for i, j := 0, 0; i < len(rp) && j < len(sp); {
		switch c := compareAt(r, rp[i], pr, s, sp[j], ps); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			keep[rp[i]] = true
			i++
		}
	}
	out := r.data[:0]
	n := 0
	for i := 0; i < r.n; i++ {
		if keep[i] {
			out = append(out, r.row(i)...)
			n++
		}
	}
	r.data, r.n = out, n
}

// sortedPerm returns the row offsets of r ordered by the projection to the
// given positions (ties by offset), i.e. a permuted sorted run over the
// shared-key columns.
func (r *varRel) sortedPerm(pos []int) []int {
	perm := make([]int, r.n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := perm[a]*r.w, perm[b]*r.w
		for _, p := range pos {
			va, vb := r.data[ia+p], r.data[ib+p]
			if va != vb {
				return va < vb
			}
		}
		return perm[a] < perm[b]
	})
	return perm
}

// compareAt compares row i of r with row j of s on their respective
// shared-variable positions.
func compareAt(r *varRel, i int, pr []int, s *varRel, j int, ps []int) int {
	ri, sj := i*r.w, j*s.w
	for k := range pr {
		va, vb := r.data[ri+pr[k]], s.data[sj+ps[k]]
		if va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// join returns the natural join of r and s, charging each merged candidate
// row against the guard meter: the inner loop is the hot path a tuple
// budget must bound, and the meter's periodic context check is what lets a
// huge single join cancel promptly (a nil gm charges nothing).
func join(r, s *varRel, gm *guard.Meter) *varRel {
	shared := sharedVars(r.vars, s.vars)
	vars := unionVars(r.vars, s.vars)
	out := &varRel{vars: vars, w: len(vars)}
	pr := varPositions(r.vars, shared)
	ps := varPositions(s.vars, shared)
	// For each output column, the source position in s (preferred, to
	// match the legacy merge where s's bindings overwrote r's) or in r.
	srcS := make([]int, out.w)
	srcR := make([]int, out.w)
	sPos := make(map[string]int, len(s.vars))
	for p, v := range s.vars {
		sPos[v] = p
	}
	rPos := make(map[string]int, len(r.vars))
	for p, v := range r.vars {
		rPos[v] = p
	}
	for k, v := range out.vars {
		if p, ok := sPos[v]; ok {
			srcS[k], srcR[k] = p, -1
		} else {
			srcS[k], srcR[k] = -1, rPos[v]
		}
	}
	index := make(map[string][]int, s.n)
	var buf []byte
	for j := 0; j < s.n; j++ {
		buf = s.appendKeyAt(buf[:0], j, ps)
		index[string(buf)] = append(index[string(buf)], j)
	}
	seen := make(map[string]bool)
	merged := make([]uint32, out.w)
	var mbuf []byte
	for i := 0; i < r.n; i++ {
		buf = r.appendKeyAt(buf[:0], i, pr)
		for _, j := range index[string(buf)] {
			gm.ChargeTuples(1)
			ri, sj := i*r.w, j*s.w
			for k := range merged {
				if p := srcS[k]; p >= 0 {
					merged[k] = s.data[sj+p]
				} else {
					merged[k] = r.data[ri+srcR[k]]
				}
			}
			mbuf = db.AppendRowKey(mbuf[:0], merged)
			if !seen[string(mbuf)] {
				seen[string(mbuf)] = true
				out.data = append(out.data, merged...)
				out.n++
			}
		}
	}
	return out
}

// project returns the projection of r to keep, a sorted subset of r's
// variables, deduplicating rows and keeping first occurrences in order.
// The result shares no storage with r.
func (r *varRel) project(keep []string) *varRel {
	out := &varRel{vars: keep, w: len(keep)}
	if out.w == r.w {
		// Every plan relation's rows are distinct already.
		out.data, out.n = slices.Clone(r.data[:r.n*r.w]), r.n
		return out
	}
	pos := varPositions(r.vars, keep)
	seen := make(map[string]bool, r.n)
	var buf []byte
	for i := 0; i < r.n; i++ {
		buf = r.appendKeyAt(buf[:0], i, pos)
		if !seen[string(buf)] {
			seen[string(buf)] = true
			base := i * r.w
			for _, p := range pos {
				out.data = append(out.data, r.data[base+p])
			}
			out.n++
		}
	}
	return out
}
