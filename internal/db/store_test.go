package db

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestTupleKeyCollision is the regression test for the historical "\x00"
// separator hazard: ("a\x00b", "c") and ("a", "b\x00c") used to pack to the
// same membership key, so the second insert was silently dropped. The
// length-prefixed legacy key and the fixed-width ID key both distinguish
// them.
func TestTupleKeyCollision(t *testing.T) {
	for _, b := range []Backend{BackendColumnar, BackendMemory} {
		d := NewWithBackend(b)
		if !d.Insert("R", "a\x00b", "c") {
			t.Fatalf("%v: first insert not new", b)
		}
		if !d.Insert("R", "a", "b\x00c") {
			t.Fatalf("%v: colliding insert dropped — separator hazard is back", b)
		}
		r := d.Relation("R")
		if r.Len() != 2 {
			t.Fatalf("%v: Len = %d, want 2", b, r.Len())
		}
		if !d.Contains("R", "a\x00b", "c") || !d.Contains("R", "a", "b\x00c") {
			t.Fatalf("%v: membership lost a colliding tuple", b)
		}
		if d.Contains("R", "a\x00b", "b\x00c") {
			t.Fatalf("%v: phantom tuple from key aliasing", b)
		}
	}
	// The raw Tuple.key must separate them too (the legacy map layout).
	if (Tuple{"a\x00b", "c"}).key() == (Tuple{"a", "b\x00c"}).key() {
		t.Fatal("Tuple.key() collides on embedded separators")
	}
}

// TestAppendRowKey checks the fixed-width packed key: distinct rows pack to
// distinct keys and equal rows to equal keys.
func TestAppendRowKey(t *testing.T) {
	rows := [][]uint32{{0, 0}, {0, 1}, {1, 0}, {256, 0}, {0, 256}, {NoID, NoID}}
	seen := map[string][]uint32{}
	for _, row := range rows {
		k := string(AppendRowKey(nil, row))
		if len(k) != 8 {
			t.Fatalf("key of %v is %d bytes, want 8", row, len(k))
		}
		if prev, ok := seen[k]; ok {
			t.Fatalf("rows %v and %v pack to the same key", prev, row)
		}
		seen[k] = row
	}
}

func TestDictInternAndLookup(t *testing.T) {
	d := NewDict()
	ids := map[string]uint32{}
	for _, s := range []string{"b", "a", "c", "b"} {
		ids[s] = d.Intern(s)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for s, id := range ids {
		if got, ok := d.ID(s); !ok || got != id {
			t.Fatalf("ID(%q) = %d,%v, want %d,true", s, got, ok, id)
		}
		if d.Term(id) != s {
			t.Fatalf("Term(%d) = %q, want %q", id, d.Term(id), s)
		}
	}
	if id, ok := d.ID("missing"); ok || id != NoID {
		t.Fatalf("ID(missing) = %d,%v, want NoID,false", id, ok)
	}
}

// TestSealCanonicalizes checks that Seal makes term-ID order equal string
// order regardless of insertion order, remaps the stored rows consistently,
// and is idempotent.
func TestSealCanonicalizes(t *testing.T) {
	for _, b := range []Backend{BackendColumnar, BackendMemory} {
		d := NewWithBackend(b)
		d.Insert("E", "zeta", "mu")
		d.Insert("E", "alpha", "zeta")
		d.Seal()
		dict := d.Dict()
		if !sort.StringsAreSorted(dict.Terms()) {
			t.Fatalf("%v: dict not sorted after Seal: %v", b, dict.Terms())
		}
		r := d.Relation("E")
		if !d.Contains("E", "zeta", "mu") || !d.Contains("E", "alpha", "zeta") {
			t.Fatalf("%v: rows lost in remap", b)
		}
		id, _ := dict.ID("zeta")
		if got := len(r.MatchingIDs(0, id)); got != 1 {
			t.Fatalf("%v: MatchingIDs(0, zeta) = %d rows, want 1", b, got)
		}
		before := dict.Terms()
		d.Seal() // idempotent: already sorted, nothing moves
		if !reflect.DeepEqual(before, dict.Terms()) {
			t.Fatalf("%v: second Seal changed the dictionary", b)
		}
		if !d.Contains("E", "alpha", "zeta") {
			t.Fatalf("%v: second Seal broke membership", b)
		}
	}
}

// TestMatchingIDsInsertionOrder pins the Store contract: offsets come back
// in insertion order on both backends, including after an index-invalidating
// insert.
func TestMatchingIDsInsertionOrder(t *testing.T) {
	for _, b := range []Backend{BackendColumnar, BackendMemory} {
		d := NewWithBackend(b)
		d.Insert("E", "a", "x")
		d.Insert("E", "b", "y")
		d.Insert("E", "a", "z")
		r := d.Relation("E")
		id, _ := d.Dict().ID("a")
		if got := r.MatchingIDs(0, id); !reflect.DeepEqual(got, []int{0, 2}) {
			t.Fatalf("%v: MatchingIDs = %v, want [0 2]", b, got)
		}
		d.Insert("E", "a", "w")
		if got := r.MatchingIDs(0, id); !reflect.DeepEqual(got, []int{0, 2, 3}) {
			t.Fatalf("%v: after insert MatchingIDs = %v, want [0 2 3]", b, got)
		}
		// Probing with NoID or an out-of-range ID matches nothing — the
		// ID-level analogue of an unknown constant.
		if len(r.MatchingIDs(1, NoID)) != 0 {
			t.Fatalf("%v: NoID probe matched rows", b)
		}
		if r.ContainsIDs([]uint32{NoID, 0}) {
			t.Fatalf("%v: ContainsIDs(NoID, ...) = true", b)
		}
	}
}

// TestStoreBackendsEquivalent drives the same random workload into both
// backends and checks every read surface agrees: string membership, ID
// membership, index probes (both string and ID forms), scans, and the
// active domain.
func TestStoreBackendsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	consts := []string{"a", "b", "c", "d", "e\x00f", ""}
	col := NewWithBackend(BackendColumnar)
	mem := NewWithBackend(BackendMemory)
	for i := 0; i < 300; i++ {
		t3 := []string{
			consts[rng.Intn(len(consts))],
			consts[rng.Intn(len(consts))],
			consts[rng.Intn(len(consts))],
		}
		if col.Insert("T", t3...) != mem.Insert("T", t3...) {
			t.Fatalf("insert newness disagrees on %q", t3)
		}
	}
	col.Seal()
	mem.Seal()
	rc, rm := col.Relation("T"), mem.Relation("T")
	if rc.Len() != rm.Len() {
		t.Fatalf("Len: col=%d mem=%d", rc.Len(), rm.Len())
	}
	if !reflect.DeepEqual(col.ActiveDomain(), mem.ActiveDomain()) {
		t.Fatalf("ActiveDomain disagrees")
	}
	for i := 0; i < rc.Len(); i++ {
		if !reflect.DeepEqual(rc.Scan(i), rm.Scan(i)) {
			t.Fatalf("Scan(%d): col=%v mem=%v", i, rc.Scan(i), rm.Scan(i))
		}
	}
	for pos := 0; pos < 3; pos++ {
		for _, c := range consts {
			if !reflect.DeepEqual(rc.Matching(pos, c), rm.Matching(pos, c)) {
				t.Fatalf("Matching(%d, %q) disagrees", pos, c)
			}
			id, ok := col.Dict().ID(c)
			if !ok {
				continue
			}
			got, want := rc.MatchingIDs(pos, id), rm.MatchingIDs(pos, id)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("MatchingIDs(%d, %d) col=%v mem=%v", pos, id, got, want)
			}
		}
	}
	for i := 0; i < 50; i++ {
		probe := Tuple{
			consts[rng.Intn(len(consts))],
			consts[rng.Intn(len(consts))],
			consts[rng.Intn(len(consts))],
		}
		if col.Contains("T", probe...) != mem.Contains("T", probe...) {
			t.Fatalf("Contains(%q) disagrees", probe)
		}
	}
}
