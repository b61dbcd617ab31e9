// Package db implements the relational database substrate over which
// conjunctive queries and well-designed pattern trees are evaluated.
//
// A Database is a finite set of ground relational atoms (Definition in
// Section 2 of Barceló & Pichler, PODS 2015). Constants are interned into a
// database-wide Dict of dense uint32 term IDs, and each Relation holds its
// rows in one columnar layout (per-column []uint32 vectors with permuted
// sorted indexes). Evaluation code works on term IDs end-to-end (At, Scan,
// MatchingIDs, ContainsIDs) and translates back to strings with
// Dict().Term only at the reporting boundary. See docs/STORAGE.md for the
// storage layout and the relation contract.
package db

import (
	"fmt"
	"sort"
	"strings"

	"wdpt/internal/guard"
)

// Tuple is a single database row: a sequence of constants.
type Tuple []string

// Equal reports whether t and u have the same length and components.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// String renders the tuple as "(a, b, c)".
func (t Tuple) String() string {
	return "(" + strings.Join(t, ", ") + ")"
}

// Relation is a named relation instance: a set of tuples of fixed arity,
// dictionary-encoded over a Dict and stored in the columnar layout.
//
// Concurrency: read operations (Contains, ContainsIDs, MatchingIDs, Scan,
// At, Columns, Len) are safe to call concurrently with each other — the
// lazy index is published through an atomic pointer, so concurrent readers
// either share one built index or build equivalent private copies and race
// benignly to publish one. Insert is NOT safe to call concurrently with
// reads or other inserts; loading and evaluation are distinct phases.
type Relation struct {
	name  string
	dict  *Dict
	store *colStore
}

// newRelation creates an empty relation with the given name and arity over
// dict. Arity must be positive.
func newRelation(name string, arity int, dict *Dict) *Relation {
	if arity <= 0 {
		// documented contract: arity misuse is a programming error, like a bad make() cap
		panic(fmt.Sprintf("db: relation %q must have positive arity, got %d", name, arity))
	}
	return &Relation{name: name, dict: dict, store: newColStore(arity)}
}

// Name returns the relation symbol.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.store.arity }

// Len returns the number of (distinct) tuples stored.
func (r *Relation) Len() int { return r.store.n }

// Dict returns the dictionary that encodes this relation's constants. For
// relations inside a Database it is the shared database dictionary.
func (r *Relation) Dict() *Dict { return r.dict }

// Insert adds a tuple, interning its constants, ignoring exact duplicates.
// It reports whether the tuple was new. Inserting invalidates indexes,
// which are rebuilt on demand.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.Arity() {
		// documented contract: arity misuse is a programming error, like a bad index
		panic(fmt.Sprintf("db: tuple %v has arity %d, relation %q expects %d", t, len(t), r.name, r.Arity()))
	}
	var stack [8]uint32
	row := stack[:0]
	for _, c := range t {
		row = append(row, r.dict.Intern(c))
	}
	return r.store.Insert(row)
}

// Contains reports whether the relation holds the given tuple.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.Arity() {
		return false
	}
	var stack [8]uint32
	row := stack[:0]
	for _, c := range t {
		id, ok := r.dict.ID(c)
		if !ok {
			return false
		}
		row = append(row, id)
	}
	return r.store.Contains(row)
}

// ContainsIDs reports whether the relation holds the given row of term
// IDs. Rows containing NoID are never present.
func (r *Relation) ContainsIDs(row []uint32) bool {
	if len(row) != r.Arity() {
		return false
	}
	limit := uint32(r.dict.Len())
	for _, id := range row {
		if id >= limit {
			return false
		}
	}
	return r.store.Contains(row)
}

// Scan returns row i (0 ≤ i < Len) as term IDs, in insertion order. The
// returned slice must not be modified.
func (r *Relation) Scan(i int) []uint32 { return r.store.Scan(i) }

// At returns row i's component at position pos as a term ID without
// materializing the row.
func (r *Relation) At(i, pos int) uint32 { return r.store.cols[pos][i] }

// Columns returns the relation's rows in column-major form: out[pos][i] is
// row i's term ID at position pos. These are the live column vectors and
// must not be modified. This is the export half of the snapshot path —
// BulkRelation/NewFromColumns is the matching load.
func (r *Relation) Columns() [][]uint32 { return r.store.cols }

// MatchingIDs returns the offsets, in insertion order, of rows whose
// component at position pos equals id; id == NoID (an unknown constant)
// matches nothing. The returned slice must not be modified. Safe for
// concurrent use with other read operations. The call is a registered
// fault-injection site (guard.SiteDBMatching): it sits under every
// backtracking homomorphism step, so chaos tests can fail the innermost
// data access.
func (r *Relation) MatchingIDs(pos int, id uint32) []int {
	guard.Fault(guard.SiteDBMatching)
	if id >= uint32(r.dict.Len()) {
		return nil
	}
	return r.store.MatchingIDs(pos, id)
}

// Database is a finite set of ground relational atoms grouped by relation
// symbol, sharing one term dictionary. The zero value is not usable;
// construct with New.
//
// Concurrency: like Relation, read operations (Contains, Relation,
// Relations, Size, ...) are safe to call concurrently with each other;
// Insert, Merge, and Seal are not safe concurrently with anything.
type Database struct {
	rels map[string]*Relation
	dict *Dict
}

// New creates an empty database.
func New() *Database {
	return &Database{rels: make(map[string]*Relation), dict: NewDict()}
}

// Dict returns the database-wide term dictionary.
func (d *Database) Dict() *Dict { return d.dict }

// Seal canonicalizes the dictionary — IDs are reassigned in sorted-term
// order, so comparing IDs orders the same way as comparing strings and two
// databases with the same facts encode identically — and renumbers every
// relation accordingly. Loaders call it once after the load phase; sealing
// is idempotent and inserting afterwards is allowed (new constants then
// take IDs past the sorted prefix until the next Seal).
func (d *Database) Seal() {
	remap := d.dict.canonicalize()
	if remap == nil {
		return
	}
	for _, r := range d.rels {
		r.store.remap(remap)
	}
}

// Relation returns the relation with the given name, or nil if the database
// holds no tuple for it.
func (d *Database) Relation(name string) *Relation {
	return d.rels[name]
}

// Relations returns all relation instances sorted by name.
func (d *Database) Relations() []*Relation {
	names := make([]string, 0, len(d.rels))
	for n := range d.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Relation, len(names))
	for i, n := range names {
		out[i] = d.rels[n]
	}
	return out
}

// Insert adds the ground atom rel(t...) to the database, creating the
// relation on first use. It panics if the relation exists with a different
// arity, since a schema mismatch is a programming error.
func (d *Database) Insert(rel string, t ...string) bool {
	r := d.rels[rel]
	if r == nil {
		r = newRelation(rel, len(t), d.dict)
		d.rels[rel] = r
	}
	return r.Insert(Tuple(t))
}

// Contains reports whether the ground atom rel(t...) is in the database.
func (d *Database) Contains(rel string, t ...string) bool {
	r := d.rels[rel]
	if r == nil {
		return false
	}
	return r.Contains(Tuple(t))
}

// Size returns the total number of tuples across all relations.
func (d *Database) Size() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// Clone returns a deep copy of the database.
func (d *Database) Clone() *Database {
	out := New()
	out.Merge(d)
	return out
}

// Merge inserts every tuple of other into d.
func (d *Database) Merge(other *Database) {
	for _, r := range other.Relations() {
		for i := 0; i < r.Len(); i++ {
			d.Insert(r.name, r.tuple(i)...)
		}
	}
}

// String renders the database as sorted "rel(a, b)" lines, one per tuple.
func (d *Database) String() string {
	var lines []string
	for name, r := range d.rels {
		for i := 0; i < r.Len(); i++ {
			lines = append(lines, name+r.tuple(i).String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// tuple translates row i back to strings through the dictionary.
func (r *Relation) tuple(i int) Tuple {
	row := r.store.Scan(i)
	t := make(Tuple, len(row))
	for pos, id := range row {
		t[pos] = r.dict.Term(id)
	}
	return t
}

// TripleStore is a convenience view of a database over the single ternary
// relation used by RDF WDPTs (Section 2, "RDF well-designed pattern trees").
type TripleStore struct {
	*Database
	rel string
}

// NewTripleStore creates an RDF-style database whose triples live in the
// relation named rel (conventionally "triple").
func NewTripleStore(rel string) *TripleStore {
	return &TripleStore{Database: New(), rel: rel}
}

// Add inserts the triple (s, p, o).
func (ts *TripleStore) Add(s, p, o string) bool {
	return ts.Insert(ts.rel, s, p, o)
}

// Has reports whether the triple (s, p, o) is present.
func (ts *TripleStore) Has(s, p, o string) bool {
	return ts.Contains(ts.rel, s, p, o)
}
