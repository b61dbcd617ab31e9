package db_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/gen"
	"wdpt/internal/sparql"
)

// TestStorageOutputPins pins the two outputs that read a whole database
// back out of the store, as SHA-256 digests: the snapshot encoding and the
// text written by sparql.FormatDatabase. Any change to how rows are stored
// or iterated must leave both byte-identical.
func TestStorageOutputPins(t *testing.T) {
	separators := db.New()
	separators.Insert("R", "a\x00b", "c")
	separators.Insert("R", "a", "b\x00c")
	separators.Insert("R", "=", "?x")
	separators.Insert("L", "\x00")
	separators.Insert("L", "")
	separators.Insert("R", "c", "a\x00b")
	separators.Seal()

	cases := []struct {
		name           string
		d              *db.Database
		snapshot, text string
	}{
		{"music-large", gen.MusicDatabaseLarge(300, 4, 1),
			"f30893da733af54230f7802f021ad4f44328c1b7f291a991ffc1a20eff4f8bb4",
			"868401150dfce1e17e79a41adccd49f684fcb32cdf2cf8577d49d1e44b1193d6"},
		{"separators", separators,
			"06b26fbbc304a3fb9c2efac4d9516ee515cc1b73f2de4ebb5c0d375151869b67",
			"93a6fedc2a413d6b4f6838cc1d1f0ec5d5cdda05c4652f2f0ba7307ad11178c7"},
	}
	for _, c := range cases {
		blob, err := snapshot.Encode(c.d)
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.name, err)
		}
		if got := digest(blob); got != c.snapshot {
			t.Errorf("%s: snapshot.Encode digest = %s, want %s", c.name, got, c.snapshot)
		}
		if got := digest([]byte(sparql.FormatDatabase(c.d))); got != c.text {
			t.Errorf("%s: sparql.FormatDatabase digest = %s, want %s", c.name, got, c.text)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
