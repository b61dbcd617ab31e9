package db

import "encoding/binary"

// Backend is the storage-layout selector that snapshot.Decode still
// accepts and ignores: the columnar store is the only layout. Its last
// caller is bench/trace.go:606, which passes DefaultBackend(); delete the
// type, DefaultBackend and Decode's second parameter together with that
// call.
type Backend int

// DefaultBackend returns the zero Backend. Its last caller is
// bench/trace.go:606 (see Backend).
func DefaultBackend() Backend { return 0 }

// AppendRowKey appends the fixed-width packed encoding of a row (4 bytes
// big-endian per ID) to dst. Fixed width means distinct rows always pack to
// distinct keys, even when the constants behind them contain separator
// bytes.
func AppendRowKey(dst []byte, row []uint32) []byte {
	for _, id := range row {
		dst = binary.BigEndian.AppendUint32(dst, id)
	}
	return dst
}
