package cq

import (
	"slices"
	"sort"
	"strconv"
	"strings"
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

// ProperlySubsumedBy reports h ⊏ h': h ⊑ h' and not h' ⊑ h.
func (h Mapping) ProperlySubsumedBy(hp Mapping) bool {
	return h.SubsumedBy(hp) && !hp.SubsumedBy(h)
}

// Equal reports whether h and h' are the same partial mapping.
func (h Mapping) Equal(hp Mapping) bool {
	return len(h) == len(hp) && h.SubsumedBy(hp)
}

// CompatibleWith reports whether h and h' agree wherever both are defined,
// i.e. whether h ∪ h' is a partial mapping.
func (h Mapping) CompatibleWith(hp Mapping) bool {
	small, big := h, hp
	if len(big) < len(small) {
		small, big = big, small
	}
	for k, v := range small {
		if vb, ok := big[k]; ok && vb != v {
			return false
		}
	}
	return true
}

// Union returns h ∪ h'. It panics if the mappings disagree on a shared
// variable, since callers are expected to check compatibility first.
func (h Mapping) Union(hp Mapping) Mapping {
	out := h.Clone()
	for k, v := range hp {
		if prev, ok := out[k]; ok && prev != v {
			// documented contract: callers must check CompatibleWith first
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
	dom := h.Domain()
	// Pre-size (an upper bound while every component is under 100 bytes)
	// so a typical key is one allocation.
	size := 0
	for _, k := range dom {
		size += len(k) + len(h[k]) + 6
	}
	var b strings.Builder
	b.Grow(size)
	for _, k := range dom {
		writeLenPrefixed(&b, k)
		writeLenPrefixed(&b, h[k])
	}
	return b.String()
}

// writeLenPrefixed appends s to b as length ':' bytes.
func writeLenPrefixed(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
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
	da, db := a.Domain(), b.Domain()
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

// SortSolutions sorts a solution list in place into the canonical order of
// CompareMappings and returns it. Applying it at every output boundary makes
// solution enumeration byte-stable across runs regardless of map iteration
// order anywhere upstream.
//
// Each answer gets its sort key once (Keys), on which slices.Compare is
// exactly CompareMappings. Already-sorted input costs one linear pass after
// the keys are built; otherwise the sort is stable.
func SortSolutions(sols []Mapping) []Mapping {
	if len(sols) < 2 {
		return sols
	}
	flat := make([]string, keySize(sols))
	keyed := make([]keyedMapping, len(sols))
	for i, h := range sols {
		keyed[i] = keyedMapping{key: keyInto(&flat, h), h: h}
	}
	if slices.IsSortedFunc(keyed, compareKeyed) {
		return sols
	}
	slices.SortStableFunc(keyed, compareKeyed)
	for i, k := range keyed {
		sols[i] = k.h
	}
	return sols
}

// Keys returns each answer's sort key: its sorted domain interleaved with
// its values, [v₁, h(v₁), v₂, h(v₂), …]. slices.Compare on two keys is
// CompareMappings on their answers. The keys share one backing array.
func Keys(sols []Mapping) [][]string {
	flat := make([]string, keySize(sols))
	keys := make([][]string, len(sols))
	for i, h := range sols {
		keys[i] = keyInto(&flat, h)
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

// keyedMapping is an answer with its SortSolutions key.
type keyedMapping struct {
	key []string
	h   Mapping
}

func compareKeyed(a, b keyedMapping) int { return slices.Compare(a.key, b.key) }

// KeyRef names one answer key of MergeKeys' input: lists[List][Index].
type KeyRef struct {
	List, Index int
}

// MergeKeys merges answer key lists, each strictly increasing in the
// canonical order (as the answers of one Solve are), into the canonical
// order of their union: a k-way merge that keeps the first list's copy of
// a key several lists hold. With maximal set it then keeps only the keys
// no other merged key properly subsumes (maximalKeys). Theorem 16 makes
// union evaluation member-wise, so this is how member answer sets combine.
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
type MappingSet struct {
	byKey map[string]Mapping
}

// NewMappingSet returns an empty set.
func NewMappingSet() *MappingSet {
	return &MappingSet{byKey: make(map[string]Mapping)}
}

// Add inserts h, reporting whether it was new.
func (s *MappingSet) Add(h Mapping) bool {
	k := h.Key()
	if _, ok := s.byKey[k]; ok {
		return false
	}
	s.byKey[k] = h.Clone()
	return true
}

// Contains reports whether the set holds exactly h.
func (s *MappingSet) Contains(h Mapping) bool {
	_, ok := s.byKey[h.Key()]
	return ok
}

// Len returns the number of mappings in the set.
func (s *MappingSet) Len() int { return len(s.byKey) }

// All returns the mappings in the canonical solution order of
// CompareMappings, for deterministic output.
func (s *MappingSet) All() []Mapping {
	out := make([]Mapping, 0, len(s.byKey))
	for _, h := range s.byKey {
		out = append(out, h) //lint:ignore R1 canonical order is restored by SortSolutions on return
	}
	return SortSolutions(out)
}

// Maximal returns, in canonical order, the mappings of the set that are
// not properly subsumed by another member: the restriction used by the
// maximal-mappings semantics p_m(D) of Section 3.4.
func (s *MappingSet) Maximal() []Mapping {
	all := s.All()
	var out []Mapping
	for _, i := range maximalKeys(Keys(all)) {
		out = append(out, all[i])
	}
	return out
}
