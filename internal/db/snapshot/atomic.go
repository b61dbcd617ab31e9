package snapshot

import (
	"fmt"
	"os"
	"path/filepath"

	"wdpt/internal/db"
	"wdpt/internal/guard"
)

// writeChunk is the unit of payload writing. Each chunk boundary is a
// fault-injection point (guard.SiteSnapshotWrite), so the chaos suite can
// tear the write at any 64 KiB offset, not just before the first byte.
const writeChunk = 64 << 10

// Write encodes d (which must be sealed — see Encode) and durably
// publishes it at path: the bytes go to a temp file in path's directory,
// are fsynced, atomically renamed over path, and the directory entry is
// fsynced last. A crash or injected fault at any step leaves either the
// previous file intact or the new file fully published — never a torn
// target. On failure the temp file is removed and the previous file, if
// any, is untouched.
func Write(path string, d *db.Database) error {
	data, err := Encode(d)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic is the only durable-write helper under internal/db. Every
// write of durable state goes through it, never a direct
// os.Create/os.WriteFile/os.Rename, because a plain write tears under crash
// and quietly serves half a file to the next load.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("snapshot: create temp in %s: %w", dir, err)
	}
	tmp := f.Name()
	if err := writeAndSync(f, data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("snapshot: write %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("snapshot: close %s: %w", tmp, err)
	}
	if err := guard.FaultErr(guard.SiteSnapshotRename); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("snapshot: rename %s over %s: %w", tmp, path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("snapshot: rename %s over %s: %w", tmp, path, err)
	}
	if err := syncDir(dir); err != nil {
		// The rename already happened, so the new file is visible (and
		// intact); only the directory entry's durability across power loss
		// is in doubt. Report it and let the caller decide — retrying the
		// whole write is safe.
		return fmt.Errorf("snapshot: sync directory %s: %w", dir, err)
	}
	return nil
}

func writeAndSync(f *os.File, data []byte) error {
	for off := 0; off < len(data); off += writeChunk {
		end := off + writeChunk
		if end > len(data) {
			end = len(data)
		}
		if err := guard.FaultErr(guard.SiteSnapshotWrite); err != nil {
			return err
		}
		if _, err := f.Write(data[off:end]); err != nil {
			return err
		}
	}
	if err := guard.FaultErr(guard.SiteSnapshotFsync); err != nil {
		return err
	}
	return f.Sync()
}

func syncDir(dir string) error {
	if err := guard.FaultErr(guard.SiteSnapshotFsync); err != nil {
		return err
	}
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := df.Sync(); err != nil {
		_ = df.Close()
		return err
	}
	return df.Close()
}
