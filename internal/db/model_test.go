package db_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
)

// The storage reference model. A database is a finite set of ground atoms
// (Section 2), so the model is exactly that: per relation, an
// insertion-ordered set of string tuples. runStoreModel drives one byte
// program into the model and into a db.Database and, after every step,
// compares every reading the store offers, translated through Dict().Term.

// modelArity fixes each relation's arity so every generated insert is
// well-formed; modelRels lists the relations in the order a program byte
// selects them.
var (
	modelArity = map[string]int{"R": 1, "S": 2, "T": 3}
	modelRels  = []string{"R", "S", "T"}
)

type modelRel struct {
	rows [][]string
	seen map[string]bool
}

type model map[string]*modelRel

// tupleKey quotes every component, so tuples that differ only in where a
// separator byte falls never share a key.
func tupleKey(t []string) string { return fmt.Sprintf("%q", t) }

func (m model) insert(rel string, t []string) bool {
	r := m[rel]
	if r == nil {
		r = &modelRel{seen: map[string]bool{}}
		m[rel] = r
	}
	k := tupleKey(t)
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.rows = append(r.rows, append([]string(nil), t...))
	return true
}

func (m model) contains(rel string, t []string) bool {
	r := m[rel]
	return r != nil && r.seen[tupleKey(t)]
}

// matching lists, in insertion order, the offsets of rel's rows whose
// component at pos is c.
func (m model) matching(rel string, pos int, c string) []int {
	var out []int
	for i, row := range m[rel].rows {
		if row[pos] == c {
			out = append(out, i)
		}
	}
	return out
}

// terms is the model's active domain, sorted.
func (m model) terms() []string {
	set := map[string]bool{}
	for _, r := range m {
		for _, row := range r.rows {
			for _, c := range row {
				set[c] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// constant decodes one program byte into a string of length 0–2 over
// {a, \x00, =, ?}: 21 distinct values, few enough that inserts collide and
// probes hit, with separator-like bytes in every position.
func constant(b byte) string {
	const alphabet = "a\x00=?"
	s := make([]byte, int(b>>6)%3)
	for i := range s {
		s[i] = alphabet[(b>>(2*i))&3]
	}
	return string(s)
}

// rawID decodes one program byte into a term ID that may lie past the
// dictionary or be NoID.
func rawID(b byte) uint32 {
	if b == 0xff {
		return db.NoID
	}
	return uint32(b % 32)
}

// runStoreModel executes prog and returns the first disagreement between
// the model and the store. Each step is an opcode byte followed by its
// operands; a program that ends mid-step reads zeros.
func runStoreModel(prog []byte) error {
	m := model{}
	d := db.New()
	take := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	tuple := func(rel string) []string {
		t := make([]string, modelArity[rel])
		for i := range t {
			t[i] = constant(take())
		}
		return t
	}
	for step := 0; len(prog) > 0; step++ {
		op := take() % 8
		switch op {
		case 0, 1, 2:
			rel := modelRels[take()%3]
			t := tuple(rel)
			if got, want := d.Insert(rel, t...), m.insert(rel, t); got != want {
				return fmt.Errorf("step %d: Insert(%s, %q) = %v, model says %v", step, rel, t, got, want)
			}
		case 3:
			rel := modelRels[take()%3]
			t := tuple(rel)
			want := m.contains(rel, t)
			if got := d.Contains(rel, t...); got != want {
				return fmt.Errorf("step %d: Contains(%s, %q) = %v, model says %v", step, rel, t, got, want)
			}
			if r := d.Relation(rel); r != nil {
				row := make([]uint32, len(t))
				for i, c := range t {
					row[i], _ = d.Dict().ID(c)
				}
				if got := r.ContainsIDs(row); got != want {
					return fmt.Errorf("step %d: ContainsIDs(%s, %q as %v) = %v, model says %v", step, rel, t, row, got, want)
				}
			}
		case 4:
			rel := modelRels[take()%3]
			pos, id := int(take())%modelArity[rel], rawID(take())
			r := d.Relation(rel)
			if r == nil {
				continue
			}
			var want []int
			if int64(id) < int64(d.Dict().Len()) {
				want = m.matching(rel, pos, d.Dict().Term(id))
			}
			if got := r.MatchingIDs(pos, id); !sameOffsets(got, want) {
				return fmt.Errorf("step %d: MatchingIDs(%s, %d, %d) = %v, model says %v", step, rel, pos, id, got, want)
			}
			row := make([]uint32, modelArity[rel])
			for i := range row {
				row[i] = rawID(take())
			}
			want2 := false
			if t, ok := termsOf(d.Dict(), row); ok {
				want2 = m.contains(rel, t)
			}
			if got := r.ContainsIDs(row); got != want2 {
				return fmt.Errorf("step %d: ContainsIDs(%s, %v) = %v, model says %v", step, rel, row, got, want2)
			}
		case 5:
			d.Seal()
			if !d.Dict().Sorted() {
				return fmt.Errorf("step %d: dictionary not sorted after Seal", step)
			}
		case 6:
			d.Seal()
			data, err := snapshot.Encode(d)
			if err != nil {
				return fmt.Errorf("step %d: Encode: %v", step, err)
			}
			if d, err = snapshot.Decode(data, db.DefaultBackend()); err != nil {
				return fmt.Errorf("step %d: Decode: %v", step, err)
			}
		case 7:
			d = d.Clone()
		}
		if got, want := d.Dict().Sorted(), sort.StringsAreSorted(d.Dict().Terms()); got != want {
			return fmt.Errorf("step %d (op %d): Dict.Sorted() = %v, terms sorted %v", step, op, got, want)
		}
		if err := compareStore(m, d); err != nil {
			return fmt.Errorf("step %d (op %d): %v", step, op, err)
		}
	}
	return nil
}

// termsOf translates a row of IDs to strings; ok is false when some ID is
// not in the dictionary.
func termsOf(dict *db.Dict, row []uint32) (t []string, ok bool) {
	t = make([]string, len(row))
	for i, id := range row {
		if int64(id) >= int64(dict.Len()) {
			return nil, false
		}
		t[i] = dict.Term(id)
	}
	return t, true
}

func sameOffsets(got, want []int) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

// compareStore checks every reading of d against m: the relation set,
// Size, the dictionary, and per relation Len, Scan, At, Columns, Contains,
// ContainsIDs and MatchingIDs for every term in the dictionary and NoID.
func compareStore(m model, d *db.Database) error {
	var want, got []string
	for name := range m {
		want = append(want, name)
	}
	sort.Strings(want)
	for _, r := range d.Relations() {
		got = append(got, r.Name())
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("relations %q, model has %q", got, want)
	}
	dict := d.Dict()
	terms := append([]string(nil), dict.Terms()...)
	sort.Strings(terms)
	if mt := m.terms(); !reflect.DeepEqual(terms, mt) && len(terms)+len(mt) > 0 {
		return fmt.Errorf("dictionary %q, model's active domain %q", terms, mt)
	}
	size := 0
	for _, name := range want {
		mr, r := m[name], d.Relation(name)
		size += len(mr.rows)
		if r.Len() != len(mr.rows) || r.Arity() != modelArity[name] {
			return fmt.Errorf("%s: Len %d arity %d, model has %d rows of arity %d", name, r.Len(), r.Arity(), len(mr.rows), modelArity[name])
		}
		cols := r.Columns()
		if len(cols) != r.Arity() {
			return fmt.Errorf("%s: Columns has %d columns, want %d", name, len(cols), r.Arity())
		}
		for i, row := range mr.rows {
			if t, ok := termsOf(dict, r.Scan(i)); !ok || !reflect.DeepEqual(t, row) {
				return fmt.Errorf("%s: Scan(%d) = %v (%q), model has %q", name, i, r.Scan(i), t, row)
			}
			for pos, c := range row {
				if got := dict.Term(r.At(i, pos)); got != c {
					return fmt.Errorf("%s: At(%d, %d) = %q, model has %q", name, i, pos, got, c)
				}
				if got := dict.Term(cols[pos][i]); got != c {
					return fmt.Errorf("%s: Columns()[%d][%d] = %q, model has %q", name, pos, i, got, c)
				}
			}
			if !d.Contains(name, row...) || !r.ContainsIDs(r.Scan(i)) {
				return fmt.Errorf("%s: stored row %q not contained", name, row)
			}
		}
		for pos, col := range cols {
			if len(col) != len(mr.rows) {
				return fmt.Errorf("%s: column %d holds %d values, want %d", name, pos, len(col), len(mr.rows))
			}
			for id := uint32(0); id < uint32(dict.Len()); id++ {
				if got, want := r.MatchingIDs(pos, id), m.matching(name, pos, dict.Term(id)); !sameOffsets(got, want) {
					return fmt.Errorf("%s: MatchingIDs(%d, %q) = %v, model says %v", name, pos, dict.Term(id), got, want)
				}
			}
			if got := r.MatchingIDs(pos, db.NoID); len(got) != 0 {
				return fmt.Errorf("%s: MatchingIDs(%d, NoID) = %v, want none", name, pos, got)
			}
		}
	}
	if d.Size() != size {
		return fmt.Errorf("Size %d, model holds %d tuples", d.Size(), size)
	}
	return nil
}

// TestStoreModelQuick runs random programs of up to 256 bytes (about 60
// steps) through the model and the store.
func TestStoreModelQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			prog := make([]byte, r.Intn(256))
			r.Read(prog)
			args[0] = reflect.ValueOf(prog)
		},
	}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	f := func(prog []byte) bool {
		if err := runStoreModel(prog); err != nil {
			t.Logf("program %q: %v", prog, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzStoreModel runs the same step machine from fuzz bytes. The committed
// seed corpus under testdata/fuzz/FuzzStoreModel replays on every go test.
func FuzzStoreModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		if err := runStoreModel(prog); err != nil {
			t.Fatal(err)
		}
	})
}
