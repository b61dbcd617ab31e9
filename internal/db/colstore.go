package db

import (
	"fmt"
	"sync/atomic"
)

// colStore is the one storage layout behind a Relation: rows are stored
// as per-column []uint32 term-ID vectors, membership is tracked by
// fixed-width packed row keys, and lookups go through lazily built
// permuted sorted runs — for each position, a permutation of the row
// offsets sorted by (value at that position, offset), built by counting
// sort over the dense term IDs together with a run directory indexed
// directly by ID. MatchingIDs is then two array loads returning a contiguous, insertion-ordered run of offsets,
// and a join that probes in index order degenerates into a merge over
// sorted runs. For arity 3 the three permutations are exactly the
// SPO/POS/OSP access paths of a triple store; for general arity there is
// one per leading position.
//
// A flat row-major mirror rides along so Scan returns a subslice instead
// of allocating a row per call — scans are the enumeration hot path, and
// a per-row allocation there costs more than the mirror's memory.
type colStore struct {
	arity int
	n     int
	cols  [][]uint32
	rows  []uint32
	seen  map[string]bool
	// perms holds the lazily built permuted sorted runs, published
	// atomically so concurrent readers share one snapshot; Insert drops
	// them and the next reader rebuilds from the then-current columns.
	perms atomic.Pointer[colIndex]
	// keyBuf is scratch for packing row keys; Insert is its only user and
	// mutation is single-threaded per the Relation contract.
	keyBuf []byte
}

// colIndex is an immutable snapshot of the per-position permutations. Once
// published it is never mutated.
type colIndex struct {
	byPos []posIndex
}

// posIndex is the permuted sorted run for one column position plus a dense
// run directory over term IDs: perm lists all row offsets ordered by
// (column value, offset), and for any id occurring in the column the
// matching run is perm[starts[id]:starts[id+1]]. starts has one entry per
// ID up to the column's maximum value plus a terminator, so a probe is two
// array loads — no hashing, no binary search.
type posIndex struct {
	perm   []int
	starts []int32
}

func newColStore(arity int) *colStore {
	return &colStore{
		arity: arity,
		cols:  make([][]uint32, arity),
		seen:  make(map[string]bool),
	}
}

func (s *colStore) Insert(row []uint32) bool {
	s.keyBuf = AppendRowKey(s.keyBuf[:0], row)
	if s.seen[string(s.keyBuf)] {
		return false
	}
	s.seen[string(s.keyBuf)] = true
	for pos, id := range row {
		s.cols[pos] = append(s.cols[pos], id)
	}
	s.rows = append(s.rows, row...)
	s.n++
	s.perms.Store(nil)
	return true
}

func (s *colStore) Contains(row []uint32) bool {
	// Contains is a read operation: pack into a local buffer instead of
	// the single-writer scratch so concurrent readers stay safe.
	var stack [32]byte
	key := AppendRowKey(stack[:0], row)
	return s.seen[string(key)]
}

func (s *colStore) Scan(i int) []uint32 {
	return s.rows[i*s.arity : (i+1)*s.arity : (i+1)*s.arity]
}

func (s *colStore) MatchingIDs(pos int, id uint32) []int {
	ix := &s.ensurePerms().byPos[pos]
	if int64(id) >= int64(len(ix.starts))-1 {
		return nil // beyond the column's maximum value: no run
	}
	return ix.perm[ix.starts[id]:ix.starts[id+1]]
}

// ensurePerms returns the current permutation index, building and
// publishing it on first use. Concurrent readers may build duplicate
// snapshots; the CompareAndSwap makes one canonical and the losers use
// their private (equivalent) copy, so the result is correct either way.
func (s *colStore) ensurePerms() *colIndex {
	if ix := s.perms.Load(); ix != nil {
		return ix
	}
	ix := &colIndex{byPos: make([]posIndex, s.arity)}
	for pos := 0; pos < s.arity; pos++ {
		col := s.cols[pos]
		// Counting sort over the dense term IDs: one pass to size the runs,
		// a prefix sum to place them, and one stable pass over the rows in
		// insertion order — O(rows + maxID), and the run directory (starts)
		// falls out of the prefix sum for free.
		var maxID uint32
		for _, id := range col {
			if id > maxID {
				maxID = id
			}
		}
		starts := make([]int32, int64(maxID)+2)
		for _, id := range col {
			starts[id+1]++
		}
		for i := 1; i < len(starts); i++ {
			starts[i] += starts[i-1]
		}
		perm := make([]int, s.n)
		next := make([]int32, int64(maxID)+1)
		copy(next, starts[:len(starts)-1])
		for i, id := range col {
			perm[next[id]] = i
			next[id]++
		}
		ix.byPos[pos] = posIndex{perm: perm, starts: starts}
	}
	if s.perms.CompareAndSwap(nil, ix) {
		return ix
	}
	if cur := s.perms.Load(); cur != nil {
		return cur
	}
	return ix
}

// bulkLoad replaces the store's contents with nRows rows given in
// column-major form, copying the column vectors and rebuilding membership
// in one pass — the snapshot load path, skipping per-row Insert overhead.
// Duplicate rows are an error rather than a silent dedup: bulk input comes
// from a snapshot, where a duplicate means corruption.
func (s *colStore) bulkLoad(cols [][]uint32, nRows int) error {
	s.cols = make([][]uint32, s.arity)
	for pos := range cols {
		s.cols[pos] = append([]uint32(nil), cols[pos]...)
	}
	s.rows = make([]uint32, 0, nRows*s.arity)
	seen := make(map[string]bool, nRows)
	row := make([]uint32, s.arity)
	var buf []byte
	for i := 0; i < nRows; i++ {
		for pos := 0; pos < s.arity; pos++ {
			row[pos] = cols[pos][i]
		}
		buf = AppendRowKey(buf[:0], row)
		if seen[string(buf)] {
			return fmt.Errorf("duplicate row at offset %d", i)
		}
		seen[string(buf)] = true
		s.rows = append(s.rows, row...)
	}
	s.seen = seen
	s.n = nRows
	s.perms.Store(nil)
	return nil
}

// remap renumbers every stored ID after dictionary canonicalization. Row
// order is preserved; the membership keys and permutations are rebuilt
// from the renumbered rows.
func (s *colStore) remap(m []uint32) {
	for _, col := range s.cols {
		for i, id := range col {
			col[i] = m[id]
		}
	}
	for i, id := range s.rows {
		s.rows[i] = m[id]
	}
	seen := make(map[string]bool, s.n)
	var buf []byte
	for i := 0; i < s.n; i++ {
		buf = AppendRowKey(buf[:0], s.rows[i*s.arity:(i+1)*s.arity])
		seen[string(buf)] = true
	}
	s.seen = seen
	s.perms.Store(nil)
}
