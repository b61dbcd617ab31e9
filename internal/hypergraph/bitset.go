package hypergraph

import (
	"math/bits"
	"strconv"
	"strings"
)

// Set is a fixed-capacity bitset over vertex indices. All sets manipulated
// together must have been created with the same capacity.
type Set []uint64

// NewSet returns an empty set with capacity for n elements.
func NewSet(n int) Set {
	return make(Set, (n+63)/64)
}

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Add inserts element i.
func (s Set) Add(i int) { s[i/64] |= 1 << (uint(i) % 64) }

// Remove deletes element i.
func (s Set) Remove(i int) { s[i/64] &^= 1 << (uint(i) % 64) }

// Has reports membership of i.
func (s Set) Has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// Len returns the number of elements.
func (s Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds all elements of t to s in place.
func (s Set) UnionWith(t Set) {
	for i := range s {
		s[i] |= t[i]
	}
}

// SubtractWith removes all elements of t from s in place.
func (s Set) SubtractWith(t Set) {
	for i := range s {
		s[i] &^= t[i]
	}
}

// Subtract returns s ∖ t as a new set.
func (s Set) Subtract(t Set) Set {
	out := s.Clone()
	out.SubtractWith(t)
	return out
}

// SubsetOf reports s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// Elements returns the members of s in increasing order.
func (s Set) Elements() []int {
	var out []int
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// Key renders the set as a compact string usable as a map key.
func (s Set) Key() string {
	var b strings.Builder
	for _, w := range s {
		b.WriteString(strconv.FormatUint(w, 36))
		b.WriteByte(',')
	}
	return b.String()
}
