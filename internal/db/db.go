// Package db implements the relational database substrate over which
// conjunctive queries and well-designed pattern trees are evaluated.
//
// A Database is a finite set of ground relational atoms (Definition in
// Section 2 of Barceló & Pichler, PODS 2015). Constants are interned into a
// database-wide Dict of dense uint32 term IDs, and each Relation holds its
// rows in a Store — by default the columnar backend (per-column []uint32
// vectors with permuted sorted indexes), with the legacy string-map layout
// available as BackendMemory for equivalence testing. Evaluation code works
// on term IDs end-to-end (At, Scan, MatchingIDs, ContainsIDs) and
// translates back to strings only at the reporting boundary; the
// string-facing accessors remain as deprecated adapters. See
// docs/STORAGE.md for the storage layout and backend contract.
package db

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

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

// key renders the tuple as a canonical byte string used for set
// membership. Each component is length-prefixed (4 bytes big-endian), so
// distinct tuples always render to distinct keys even when components
// contain separator bytes — the historical "\x00"-join encoding collided
// ("a\x00b","c") with ("a","b\x00c") and silently dropped tuples.
func (t Tuple) key() string {
	n := 0
	for _, c := range t {
		n += 4 + len(c)
	}
	b := make([]byte, 0, n)
	for _, c := range t {
		b = binary.BigEndian.AppendUint32(b, uint32(len(c)))
		b = append(b, c...)
	}
	return string(b)
}

// String renders the tuple as "(a, b, c)".
func (t Tuple) String() string {
	return "(" + strings.Join(t, ", ") + ")"
}

// Relation is a named relation instance: a set of tuples of fixed arity,
// dictionary-encoded over a Dict and stored in a Store.
//
// Concurrency: read operations (Contains, Matching, MatchingIDs, Scan, At,
// Tuples, Len) are safe to call concurrently with each other — lazy
// indexes are published through atomic pointers, so concurrent readers
// either share one built index or build equivalent private copies and race
// benignly to publish one. Insert is NOT safe to call concurrently with
// reads or other inserts; loading and evaluation are distinct phases.
type Relation struct {
	name  string
	arity int
	dict  *Dict
	store Store
	// at caches the store's optional fast random-access extension so the
	// hot-path At avoids a per-call interface type assertion; nil when the
	// store does not implement atter.
	at atter
	// legacy caches the materialized string tuples for the deprecated
	// Tuples accessor, published atomically; Insert invalidates it.
	legacy atomic.Pointer[[]Tuple]
}

// NewRelation creates an empty standalone relation with the given name and
// arity, backed by a private dictionary and the default columnar store.
// Relations inside a Database share the database dictionary instead; use
// Database.Insert to create those. Arity must be positive.
func NewRelation(name string, arity int) *Relation {
	return newRelation(name, arity, NewDict(), BackendColumnar)
}

func newRelation(name string, arity int, dict *Dict, b Backend) *Relation {
	if arity <= 0 {
		//lint:ignore R2 documented contract: arity misuse is a programming error, like a bad make() cap
		panic(fmt.Sprintf("db: relation %q must have positive arity, got %d", name, arity))
	}
	st := newStore(b, dict, arity)
	at, _ := st.(atter)
	return &Relation{
		name:  name,
		arity: arity,
		dict:  dict,
		store: st,
		at:    at,
	}
}

// Name returns the relation symbol.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of (distinct) tuples stored.
func (r *Relation) Len() int { return r.store.Len() }

// Dict returns the dictionary that encodes this relation's constants. For
// relations inside a Database it is the shared database dictionary.
func (r *Relation) Dict() *Dict { return r.dict }

// Store returns the underlying storage. The returned Store must only be
// used for reads.
func (r *Relation) Store() Store { return r.store }

// Tuples returns the stored tuples as strings, materializing them from the
// dictionary on first use. The returned slice must not be modified.
//
// Deprecated: evaluation code should iterate rows by ID via Scan/At and
// translate with Dict().Term at the reporting boundary.
func (r *Relation) Tuples() []Tuple {
	if cached := r.legacy.Load(); cached != nil {
		return *cached
	}
	var out []Tuple
	if st, ok := r.store.(interface{ stringTuples() []Tuple }); ok {
		out = st.stringTuples()
	} else {
		n := r.store.Len()
		out = make([]Tuple, n)
		for i := 0; i < n; i++ {
			row := r.store.Scan(i)
			t := make(Tuple, len(row))
			for pos, id := range row {
				t[pos] = r.dict.Term(id)
			}
			out[i] = t
		}
	}
	r.legacy.CompareAndSwap(nil, &out)
	if cached := r.legacy.Load(); cached != nil {
		return *cached
	}
	return out
}

// Insert adds a tuple, interning its constants, ignoring exact duplicates.
// It reports whether the tuple was new. Inserting invalidates indexes,
// which are rebuilt on demand.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		//lint:ignore R2 documented contract: arity misuse is a programming error, like a bad index
		panic(fmt.Sprintf("db: tuple %v has arity %d, relation %q expects %d", t, len(t), r.name, r.arity))
	}
	var stack [8]uint32
	row := stack[:0]
	for _, c := range t {
		row = append(row, r.dict.Intern(c))
	}
	if !r.store.Insert(row) {
		return false
	}
	r.legacy.Store(nil)
	return true
}

// Contains reports whether the relation holds the given tuple.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
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
	if len(row) != r.arity {
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
func (r *Relation) At(i, pos int) uint32 {
	if r.at != nil {
		return r.at.At(i, pos)
	}
	return r.store.Scan(i)[pos]
}

// Columns returns the relation's rows in column-major form: out[pos][i] is
// row i's term ID at position pos. The columnar backend returns its live
// column vectors; other backends materialize a copy. Either way the result
// must not be modified. This is the export half of the snapshot path —
// BulkRelation/NewFromColumns is the matching load.
func (r *Relation) Columns() [][]uint32 {
	if cs, ok := r.store.(interface{ columns() [][]uint32 }); ok {
		return cs.columns()
	}
	n := r.store.Len()
	out := make([][]uint32, r.arity)
	for pos := range out {
		out[pos] = make([]uint32, n)
	}
	for i := 0; i < n; i++ {
		for pos, id := range r.store.Scan(i) {
			out[pos][i] = id
		}
	}
	return out
}

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

// Matching returns the offsets of tuples whose component at position pos
// equals value. The returned slice must not be modified. Safe for
// concurrent use with other read operations. Like MatchingIDs, the call is
// a registered fault-injection site (guard.SiteDBMatching).
//
// Deprecated: evaluation code should resolve the constant once with
// Dict().ID and probe by term ID via MatchingIDs.
func (r *Relation) Matching(pos int, value string) []int {
	guard.Fault(guard.SiteDBMatching)
	id, ok := r.dict.ID(value)
	if !ok {
		return nil
	}
	return r.store.MatchingIDs(pos, id)
}

// Database is a finite set of ground relational atoms grouped by relation
// symbol, sharing one term dictionary. The zero value is not usable;
// construct with New or NewWithBackend.
//
// Concurrency: like Relation, read operations (Contains, Relation,
// ActiveDomain, ...) are safe to call concurrently with each other;
// Insert, Merge, and Seal are not safe concurrently with anything.
type Database struct {
	rels    map[string]*Relation
	dict    *Dict
	backend Backend
	// adom caches the sorted active domain, published atomically so
	// concurrent readers can share it; Insert invalidates it.
	adom atomic.Pointer[[]string]
}

// New creates an empty database on the columnar backend.
func New() *Database { return NewWithBackend(DefaultBackend()) }

// NewWithBackend creates an empty database whose relations use the given
// storage backend.
func NewWithBackend(b Backend) *Database {
	return &Database{rels: make(map[string]*Relation), dict: NewDict(), backend: b}
}

// Dict returns the database-wide term dictionary.
func (d *Database) Dict() *Dict { return d.dict }

// Backend returns the storage backend used by this database's relations.
func (d *Database) Backend() Backend { return d.backend }

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
		if rm, ok := r.store.(remapper); ok {
			rm.remap(remap)
		}
		r.legacy.Store(nil)
	}
	d.adom.Store(nil)
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
		r = newRelation(rel, len(t), d.dict, d.backend)
		d.rels[rel] = r
	}
	d.adom.Store(nil)
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

// ActiveDomain returns the sorted set of constants occurring in some tuple
// — exactly the interned terms, since only Insert interns. The returned
// slice must not be modified. Safe for concurrent use with other read
// operations.
//
// Deprecated: evaluation code should work on term IDs via Dict; after
// Seal, ID order coincides with the sorted string order returned here.
func (d *Database) ActiveDomain() []string {
	if cached := d.adom.Load(); cached != nil {
		return *cached
	}
	terms := d.dict.Terms()
	out := make([]string, len(terms))
	copy(out, terms)
	sort.Strings(out)
	d.adom.CompareAndSwap(nil, &out)
	if cached := d.adom.Load(); cached != nil {
		return *cached
	}
	return out
}

// Clone returns a deep copy of the database on the same backend.
func (d *Database) Clone() *Database {
	out := NewWithBackend(d.backend)
	for name, r := range d.rels {
		for _, t := range r.Tuples() {
			out.Insert(name, t...)
		}
	}
	return out
}

// CloneWithBackend returns a deep copy of the database stored on the given
// backend, sealed so both copies assign identical canonical term IDs. This
// is the backend-equivalence harness: evaluating the same query on d and on
// its clone must produce byte-identical answers.
func (d *Database) CloneWithBackend(b Backend) *Database {
	out := NewWithBackend(b)
	for name, r := range d.rels {
		for _, t := range r.Tuples() {
			out.Insert(name, t...)
		}
	}
	out.Seal()
	return out
}

// Merge inserts every tuple of other into d.
func (d *Database) Merge(other *Database) {
	for name, r := range other.rels {
		for _, t := range r.Tuples() {
			d.Insert(name, t...)
		}
	}
}

// String renders the database as sorted "rel(a, b)" lines, one per tuple.
func (d *Database) String() string {
	var lines []string
	for name, r := range d.rels {
		for _, t := range r.Tuples() {
			lines = append(lines, name+t.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
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

// RelName returns the name of the ternary relation holding the triples.
func (ts *TripleStore) RelName() string { return ts.rel }

// Add inserts the triple (s, p, o).
func (ts *TripleStore) Add(s, p, o string) bool {
	return ts.Insert(ts.rel, s, p, o)
}

// Has reports whether the triple (s, p, o) is present.
func (ts *TripleStore) Has(s, p, o string) bool {
	return ts.Contains(ts.rel, s, p, o)
}
