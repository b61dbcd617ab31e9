package db

import (
	"encoding/binary"
	"fmt"
)

// Store is the narrow storage interface behind a Relation. All rows are
// dictionary-encoded: a row is a slice of term IDs of length Arity, and the
// Dict that assigned the IDs is owned by the enclosing Relation/Database.
//
// Concurrency contract (same as the legacy relation): read operations
// (Contains, Scan, MatchingIDs, Len, Arity) are safe to call concurrently
// with each other; Insert is not safe concurrently with anything.
type Store interface {
	// Insert adds a row, ignoring exact duplicates, and reports whether it
	// was new. The implementation copies the row; callers may reuse the
	// argument slice.
	Insert(row []uint32) bool
	// Contains reports whether the exact row is stored.
	Contains(row []uint32) bool
	// Scan returns row i (0 ≤ i < Len) in insertion order. The returned
	// slice must not be modified and may alias internal storage.
	Scan(i int) []uint32
	// MatchingIDs returns the offsets, in insertion order, of rows whose
	// component at position pos equals id. The returned slice must not be
	// modified.
	MatchingIDs(pos int, id uint32) []int
	// Len returns the number of (distinct) rows stored.
	Len() int
	// Arity returns the number of columns.
	Arity() int
}

// atter is the optional fast random-access extension both built-in stores
// implement: At(i, pos) is row i's component at position pos without
// materializing the row. The façade falls back to Scan when absent.
type atter interface {
	At(i, pos int) uint32
}

// remapper is the optional renumbering hook invoked by Database.Seal after
// the dictionary is canonicalized: every stored ID old is replaced by
// m[old]. Row order is preserved.
type remapper interface {
	remap(m []uint32)
}

// Backend selects a Store implementation.
type Backend int

const (
	// BackendColumnar is the default: per-column []uint32 with lazily
	// built permuted sorted indexes (binary-search lookups, merge-join
	// friendly runs). See docs/STORAGE.md.
	BackendColumnar Backend = iota
	// BackendMemory is the legacy string-map relation layout, kept as the
	// reference implementation of the backend-equivalence tests.
	BackendMemory
)

// String returns the flag-style name of the backend ("col" or "mem").
func (b Backend) String() string {
	switch b {
	case BackendColumnar:
		return "col"
	case BackendMemory:
		return "mem"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// DefaultBackend returns the backend New uses: always BackendColumnar, the
// one layout the product serves from. It stays a function because the
// nested bench/ module compiles against it (snapshot.Decode(_,
// db.DefaultBackend())); the memory layout is reachable only through
// NewWithBackend / CloneWithBackend, as the tests' reference.
func DefaultBackend() Backend { return BackendColumnar }

// newStore creates an empty store of the given backend for the relation.
func newStore(b Backend, dict *Dict, arity int) Store {
	if b == BackendMemory {
		return newMemStore(dict, arity)
	}
	return newColStore(arity)
}

// AppendRowKey appends the fixed-width packed encoding of a row (4 bytes
// big-endian per ID) to dst. Fixed width means distinct rows always pack to
// distinct keys, which is what eliminates the historical Tuple.key()
// separator-collision hazard for ID-keyed stores.
func AppendRowKey(dst []byte, row []uint32) []byte {
	for _, id := range row {
		dst = binary.BigEndian.AppendUint32(dst, id)
	}
	return dst
}
