// Package db is the fixture stand-in for the storage layer: R13 matches
// []db.Tuple collections, and R10 matches (*Relation).MatchingIDs as a
// cancellable sink. The package itself is R10-exempt substrate.
package db

// Tuple is one stored row.
type Tuple []string

// Relation is a fixture relation.
type Relation struct{ rows []Tuple }

// MatchingIDs is the index-scan sink for R10.
func (r *Relation) MatchingIDs(pos int, id uint32) []int {
	if pos < 0 || int(id) >= len(r.rows) {
		return nil
	}
	return []int{int(id)}
}
