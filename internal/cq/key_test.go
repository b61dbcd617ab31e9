package cq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Key injectivity. Mapping.Key and Atom.Key length-prefix every
// variable-length component, so no byte a name or a value holds can make
// two distinct mappings (or atoms) share a key. cqeval's shapeKey is
// length-prefixed too.

// TestMappingKeyCollisionPair is the concrete pair the separator-joined key
// conflated: "x=a\x00y=b\x00" was the key of both mappings, so the set
// dropped a distinct answer.
func TestMappingKeyCollisionPair(t *testing.T) {
	h1 := Mapping{"x": "a\x00y=b"}
	h2 := Mapping{"x": "a", "y": "b"}
	if h1.Key() == h2.Key() {
		t.Fatalf("distinct mappings %v and %v share the key %q", h1, h2, h1.Key())
	}
	s := NewMappingSet()
	if !s.Add(h1) || !s.Add(h2) {
		t.Fatal("MappingSet.Add dropped a distinct mapping")
	}
	if all := s.All(); len(all) != 2 || !all[0].Equal(h2) || !all[1].Equal(h1) {
		t.Fatalf("set holds %v, want %v and %v", all, h2, h1)
	}
}

// TestAtomKeyCollisionPairs: a constant holding the old separator and tag
// bytes must not make two different atoms syntactic duplicates.
func TestAtomKeyCollisionPairs(t *testing.T) {
	pairs := [][2]Atom{
		{NewAtom("R", C("a"), C("b")), NewAtom("R", C("a\x00=b"))},
		{NewAtom("R", V("x"), C("a\x00=b"), C("c")), NewAtom("R", V("x"), C("a"), C("b\x00=c"))},
		{NewAtom("R", C("c"), V("y")), NewAtom("R", C("c\x00?y"))},
		{NewAtom("R\x00=a"), NewAtom("R", C("a"))},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("distinct atoms %v and %v share the key %q", p[0], p[1], p[0].Key())
		}
		if got := DedupAtoms([]Atom{p[0], p[1]}); len(got) != 2 {
			t.Errorf("DedupAtoms(%v, %v) kept %d atoms, want 2", p[0], p[1], len(got))
		}
	}
}

// TestKeyInjectivityProperty draws random mappings and atoms over an
// alphabet made of the bytes the old keys used as structure (\x00, '=',
// '?') plus the new ones (':' and digits): equal keys must mean equal
// values.
func TestKeyInjectivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := []byte{0, '=', '?', ':', '1', '2', 'a', 'x'}
	word := func(min int) string {
		b := make([]byte, min+rng.Intn(4))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	mappings := make(map[string]Mapping)
	atoms := make(map[string]Atom)
	for i := 0; i < 20000; i++ {
		h := Mapping{}
		for n := rng.Intn(3); len(h) < n; {
			h[word(1)] = word(0)
		}
		if prev, ok := mappings[h.Key()]; ok && !prev.Equal(h) {
			t.Fatalf("mappings %q and %q share the key %q", prev, h, h.Key())
		}
		mappings[h.Key()] = h

		args := make([]Term, rng.Intn(3))
		for j := range args {
			if rng.Intn(2) == 0 {
				args[j] = V(word(1))
			} else {
				args[j] = C(word(0))
			}
		}
		a := Atom{Rel: word(1), Args: args}
		if prev, ok := atoms[a.Key()]; ok && !prev.Equal(a) {
			t.Fatalf("atoms %q and %q share the key %q", prev, a, a.Key())
		}
		atoms[a.Key()] = a
	}
}

// TestMappingKeyFormat pins the key bytes, on a small mapping and on one
// with more names and bytes than Key's stack buffers hold, and checks that
// AppendKey appends the same bytes after a prefix.
func TestMappingKeyFormat(t *testing.T) {
	if got, want := (Mapping{"y": "b", "x": "a\x00"}).Key(), "1:x2:a\x001:y1:b"; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	h := Mapping{}
	var want strings.Builder
	for i := 0; i < 12; i++ {
		name, value := fmt.Sprintf("v%02d", i), strings.Repeat("c", 20+i)
		h[name] = value
		fmt.Fprintf(&want, "%d:%s%d:%s", len(name), name, len(value), value)
	}
	if got := h.Key(); got != want.String() {
		t.Fatalf("Key = %q, want %q", got, want.String())
	}
	if got := string(h.AppendKey([]byte("pre|"))); got != "pre|"+want.String() {
		t.Fatalf("AppendKey = %q, want the prefix then the key", got)
	}
}
