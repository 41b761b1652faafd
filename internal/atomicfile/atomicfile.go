// Package atomicfile writes files atomically *and durably*: temp file
// in the destination directory, explicit permissions, fsync, rename,
// directory fsync. The artifact writers (params files, load summaries,
// metric snapshots) use it so that a crash — of the process or the
// machine — leaves either the old complete file or the new complete
// file, never a truncated or empty one.
//
// The plain temp+rename idiom has two holes this package closes:
//
//   - os.CreateTemp creates files with mode 0600, and rename preserves
//     it, so artifacts silently became owner-only — unreadable by the
//     monitoring or by another user;
//   - without an fsync before the rename, the rename can be durable
//     while the data is not, so a power loss could persist an empty
//     file under the final name — exactly the corruption atomic
//     replacement is meant to rule out.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically and durably replaces path with data at the given
// permissions. The temp file lives in path's directory so the rename
// never crosses filesystems. On any error the temp file is removed and
// the previous contents of path are untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	// CreateTemp creates 0600; widen to the caller's permissions before
	// the file becomes visible under its final name.
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	// Data must be on disk before the rename can be: otherwise the
	// rename may survive a crash that the data does not.
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	// Persist the directory entry too, so the new name survives a
	// crash. Best-effort: some filesystems refuse directory fsync, and
	// by this point the data itself is already safe.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
