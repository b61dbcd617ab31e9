package cq

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wdpt/internal/db"
)

// Mapping is a partial mapping h : X -> U from variable names to constants.
// A nil Mapping is the everywhere-undefined mapping.
type Mapping map[string]string

// Clone returns a copy of the mapping.
func (h Mapping) Clone() Mapping {
	out := make(Mapping, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// Domain returns the sorted set of variables on which h is defined.
func (h Mapping) Domain() []string {
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Restrict returns the restriction of h to the given variables.
func (h Mapping) Restrict(vars []string) Mapping {
	out := make(Mapping)
	for _, v := range vars {
		if c, ok := h[v]; ok {
			out[v] = c
		}
	}
	return out
}

// SubsumedBy reports h ⊑ h': dom(h) ⊆ dom(h') and the mappings agree on
// dom(h) (Section 2, "subsumption" of partial mappings).
func (h Mapping) SubsumedBy(hp Mapping) bool {
	for k, v := range h {
		vp, ok := hp[k]
		if !ok || v != vp {
			return false
		}
	}
	return true
}

// Equal reports whether h and h' are the same partial mapping.
func (h Mapping) Equal(hp Mapping) bool {
	return len(h) == len(hp) && h.SubsumedBy(hp)
}

// Union returns h ∪ h'. It panics if the mappings disagree on a shared
// variable, since callers are expected to check compatibility first.
func (h Mapping) Union(hp Mapping) Mapping {
	out := h.Clone()
	for k, v := range hp {
		if prev, ok := out[k]; ok && prev != v {
			// documented contract: callers must check compatibility first
			panic("cq: union of incompatible mappings at variable " + k)
		}
		out[k] = v
	}
	return out
}

// ApplyAtom returns the atom with all bound variables replaced by their
// images under h. Unbound variables are left intact.
func (h Mapping) ApplyAtom(a Atom) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			if v, ok := h[t.Value()]; ok {
				args[i] = C(v)
				continue
			}
		}
		args[i] = t
	}
	return Atom{Rel: a.Rel, Args: args}
}

// Key renders the mapping as a canonical string usable as a map key: per
// variable in sorted order, the name and then the value, each as length ':'
// bytes. The length prefixes keep the key injective whatever bytes a name
// or a value holds.
func (h Mapping) Key() string {
	var buf [128]byte
	return string(h.AppendKey(buf[:0]))
}

// AppendKey appends h's Key to dst and returns the extended slice.
func (h Mapping) AppendKey(dst []byte) []byte {
	var names [8]string
	dom := names[:0]
	for k := range h {
		dom = append(dom, k)
	}
	slices.Sort(dom)
	for _, k := range dom {
		dst = appendLenPrefixed(dst, k)
		dst = appendLenPrefixed(dst, h[k])
	}
	return dst
}

// appendLenPrefixed appends s to dst as length ':' bytes.
func appendLenPrefixed(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// String renders the mapping as "{x -> a, y -> b}" with sorted variables.
func (h Mapping) String() string {
	dom := h.Domain()
	parts := make([]string, len(dom))
	for i, k := range dom {
		parts[i] = k + " -> " + h[k]
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// CompareMappings compares two partial mappings in the canonical solution
// order: entry by entry over their sorted domains, first by variable name,
// then by term value; a mapping whose entries are a strict prefix of the
// other's sorts first. It returns -1, 0, or +1.
func CompareMappings(a, b Mapping) int {
	// The domains sort on the stack, so a comparison allocates nothing for
	// mappings of up to 16 variables.
	var na, nb [16]string
	da, db := appendDomain(na[:0], a), appendDomain(nb[:0], b)
	for i := 0; i < len(da) && i < len(db); i++ {
		if da[i] != db[i] {
			if da[i] < db[i] {
				return -1
			}
			return 1
		}
		if va, vb := a[da[i]], b[db[i]]; va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(da) < len(db):
		return -1
	case len(da) > len(db):
		return 1
	}
	return 0
}

// appendDomain appends h's variables to dst in sorted order.
func appendDomain(dst []string, h Mapping) []string {
	for k := range h {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// SortSolutions sorts a solution list in place into the canonical order of
// CompareMappings and returns it. Applying it at every output boundary makes
// solution enumeration byte-stable across runs regardless of map iteration
// order anywhere upstream.
//
// Each answer's sort key (its sorted domain interleaved with its values,
// as RowKeys lays it out), on which slices.Compare is exactly
// CompareMappings, is built once. Already-sorted input is checked pairwise
// on keys built in two stack buffers and allocates nothing. Otherwise the
// keys share one backing array, and equal answers keep their input order,
// the input index breaking their ties.
func SortSolutions(sols []Mapping) []Mapping {
	if inCanonicalOrder(sols) {
		return sols
	}
	flat := make([]string, keySize(sols))
	keyed := make([]keyedMapping, len(sols))
	for i, h := range sols {
		keyed[i] = keyedMapping{key: keyInto(&flat, h), h: h, i: i}
	}
	slices.SortFunc(keyed, func(a, b keyedMapping) int {
		if c := compareKeyed(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	for i, k := range keyed {
		sols[i] = k.h
	}
	return sols
}

// SortRows sorts n distinct flat ID rows in place into the canonical order
// of CompareMappings on their decodings. The columns stand for variables
// sorted by name, db.NoID leaves a column's variable unbound, and IDs
// compare as dict's terms, or as IDs when dict is nil or sorted. A sorted
// input allocates nothing.
func SortRows(rows []uint32, n int, dict *db.Dict) {
	if n < 2 {
		return
	}
	w := len(rows) / n
	row := func(i int) []uint32 { return rows[i*w : i*w+w] }
	cmpRows := func(i, j int) int { return compareRows(row(i), row(j), dict) }
	i := 1
	for i < n && cmpRows(i-1, i) < 0 {
		i++
	}
	if i == n {
		return
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, cmpRows)
	sorted := make([]uint32, 0, len(rows))
	for _, i := range perm {
		sorted = append(sorted, row(i)...)
	}
	copy(rows, sorted)
}

// compareRows is CompareMappings on the decodings of two rows of SortRows.
func compareRows(a, b []uint32, dict *db.Dict) int {
	i, j := 0, 0
	for {
		for i < len(a) && a[i] == db.NoID {
			i++
		}
		for j < len(b) && b[j] == db.NoID {
			j++
		}
		switch {
		case i == len(a) || j == len(b):
			return cmp.Compare(len(a)-i, len(b)-j) // a shorter domain first
		case i != j: // the lower column names the smaller variable
			return cmp.Compare(i, j)
		case a[i] != b[j]:
			if dict == nil || dict.Sorted() {
				return cmp.Compare(a[i], b[j])
			}
			return strings.Compare(dict.Term(a[i]), dict.Term(b[j]))
		}
		i, j = i+1, j+1
	}
}

// inCanonicalOrder reports whether sols are in CompareMappings order,
// building each answer's key once into one of two alternating stack
// buffers (answers of up to 16 variables allocate nothing).
func inCanonicalOrder(sols []Mapping) bool {
	var bufA, bufB [32]string
	next, spare := bufA[:], bufB[:]
	var prev []string
	for i, h := range sols {
		flat := next
		if len(flat) < 2*len(h) {
			flat = make([]string, 2*len(h))
		}
		key := keyInto(&flat, h)
		if i > 0 && slices.Compare(prev, key) > 0 {
			return false
		}
		prev, next, spare = key, spare, next
	}
	return true
}

// RowKeys returns the sort key of each of n flat ID rows over vars, in
// SortRows' layout: per row, the names of its bound columns interleaved
// with their terms in dict, [v₁, h(v₁), v₂, h(v₂), …].
// slices.Compare on two keys is CompareMappings on the rows' decodings.
// The keys share one backing array.
func RowKeys(vars []string, ids []uint32, n int, dict *db.Dict) [][]string {
	size := 0
	for _, id := range ids {
		if id != db.NoID {
			size += 2
		}
	}
	flat := make([]string, 0, size)
	keys := make([][]string, n)
	w := len(vars)
	for i := range keys {
		from := len(flat)
		for c, id := range ids[i*w : i*w+w] {
			if id != db.NoID {
				flat = append(flat, vars[c], dict.Term(id))
			}
		}
		keys[i] = flat[from:len(flat):len(flat)]
	}
	return keys
}

// keySize is the number of strings in the keys of sols.
func keySize(sols []Mapping) int {
	size := 0
	for _, h := range sols {
		size += 2 * len(h)
	}
	return size
}

// keyInto writes h's key into the front of *flat, advances *flat past it
// and returns it.
func keyInto(flat *[]string, h Mapping) []string {
	key := (*flat)[: 2*len(h) : 2*len(h)]
	*flat = (*flat)[2*len(h):]
	names := key[:len(h)]
	j := 0
	for v := range h {
		names[j] = v
		j++
	}
	slices.Sort(names)
	// Spread the names to the even slots from the back, so no name is
	// overwritten before it moves.
	for j := len(names) - 1; j >= 0; j-- {
		key[2*j] = names[j]
		key[2*j+1] = h[key[2*j]]
	}
	return key
}

// keyedMapping is an answer with its SortSolutions key and input index.
type keyedMapping struct {
	key []string
	h   Mapping
	i   int
}

func compareKeyed(a, b keyedMapping) int { return slices.Compare(a.key, b.key) }

// KeyRef names one answer key of MergeKeys' input: lists[List][Index].
type KeyRef struct {
	List, Index int
}

// MergeKeys merges answer key lists in RowKeys' layout, each strictly
// increasing in the canonical order (as the answers of one Solve are),
// into the canonical order of their union: a k-way merge that keeps the
// first list's copy of a key several lists hold. With maximal set it then
// keeps only the keys no other merged key properly subsumes (maximalKeys).
// Theorem 16 makes union evaluation member-wise, so this is how member
// answer sets combine.
func MergeKeys(lists [][][]string, maximal bool) []KeyRef {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]KeyRef, 0, n)
	next := make([]int, len(lists))
	var last []string
	for {
		best := -1
		for li, l := range lists {
			if next[li] < len(l) && (best < 0 || slices.Compare(l[next[li]], lists[best][next[best]]) < 0) {
				best = li
			}
		}
		if best < 0 {
			break
		}
		key := lists[best][next[best]]
		if len(out) == 0 || !slices.Equal(key, last) {
			out = append(out, KeyRef{List: best, Index: next[best]})
			last = key
		}
		next[best]++
	}
	if !maximal {
		return out
	}
	merged := make([][]string, len(out))
	for i, r := range out {
		merged[i] = lists[r.List][r.Index]
	}
	kept := out[:0]
	for _, i := range maximalKeys(merged) {
		kept = append(kept, out[i])
	}
	return kept
}

// maximalKeys returns, in order, the indices of the keys whose answers no
// other key's answer properly subsumes: the ⊏-maximal answers of p_m(D)
// (Section 3.4). Every pair is tested.
func maximalKeys(keys [][]string) []int {
	var out []int
	for i, k := range keys {
		dominated := false
		for j, kp := range keys {
			if i != j && keyProperlySubsumed(k, kp) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// keyProperlySubsumed reports h ⊏ h' on the keys of h and h'. h ⊑ h' puts
// dom(h) ⊆ dom(h'), and equal domains would make h = h', so h ⊏ h' is
// h ⊑ h' with a shorter key: every name-value pair of a found in b.
func keyProperlySubsumed(a, b []string) bool {
	if len(a) >= len(b) {
		return false
	}
	j := 0
	for i := 0; i < len(a); i += 2 {
		for j < len(b) && b[j] < a[i] {
			j += 2
		}
		if j >= len(b) || b[j] != a[i] || b[j+1] != a[i+1] {
			return false
		}
		j += 2
	}
	return true
}

// MappingSet is a set of partial mappings with canonical-key deduplication.
// It owns the mappings it holds: Add keeps its argument rather than a
// copy, so a caller must not modify a mapping after adding it.
type MappingSet struct {
	byKey map[string]Mapping
}

// NewMappingSet returns an empty set.
func NewMappingSet() *MappingSet {
	return &MappingSet{byKey: make(map[string]Mapping)}
}

// Add inserts h, reporting whether it was new. The set takes ownership of
// h: the caller passes a mapping it will not modify again. h's key is
// built once.
func (s *MappingSet) Add(h Mapping) bool {
	var buf [128]byte
	k := h.AppendKey(buf[:0])
	if _, ok := s.byKey[string(k)]; ok {
		return false
	}
	s.byKey[string(k)] = h
	return true
}

// All returns the mappings in the canonical solution order of
// CompareMappings, for deterministic output.
func (s *MappingSet) All() []Mapping {
	out := make([]Mapping, 0, len(s.byKey))
	for _, h := range s.byKey {
		out = append(out, h) //lint:ignore R1 canonical order is restored by SortSolutions on return
	}
	return SortSolutions(out)
}
