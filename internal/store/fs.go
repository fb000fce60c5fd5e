// Package store is PlanetP's crash-safe persistence subsystem: an
// append-only write-ahead log of publish/remove operations plus atomic
// checksummed snapshots, folded together by size-triggered compaction.
// A peer that crashes — mid-write, mid-fsync, mid-rename — recovers to a
// consistent pre- or post-operation state, never a corrupt one, and
// learns the version counters it must supersede when it rejoins the
// community (the paper's epoch-supersession requirement, §2/§6).
//
// Durability protocol:
//
//   - Every publish/remove appends one length-prefixed, CRC32C-checksummed
//     record to wal.ppl and fsyncs it before it is acknowledged (a batch
//     is one write and one fsync).
//   - Snapshots are written to a temp file, fsynced, and renamed into
//     place; the previous snapshot AND the WAL generation it pairs with
//     are kept as a fallback (snapshot.pps.prev + wal.ppl.prev) until
//     the next compaction replaces them, so falling back to the prior
//     snapshot replays a gapless operation history.
//   - Rotation stamps the snapshot with the fold LSN captured atomically
//     with its payload and carries any later records into the fresh log,
//     so an append racing a compaction is never rotated away.
//   - Recovery replays snapshot + the merged WAL generations, truncates
//     the log at the first torn or corrupt record, and quarantines
//     unreadable files aside — nothing is ever deleted.
//
// All file I/O goes through the FS seam so tests inject deterministic
// disk faults (see FaultFS and MemFS) in the same spirit as
// internal/faultnet injects network faults.
package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FS abstracts the handful of filesystem operations the store performs,
// so deterministic fault injection can sit between the store and the
// disk. The production implementation is OSFS; tests use MemFS (pure
// in-memory, with fsync-aware crash simulation) and FaultFS (seeded torn
// writes, short writes, fsync failures, and crash points over any FS).
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string) error
	// Create opens a file for writing, truncating it if it exists.
	Create(name string) (File, error)
	// OpenAppend opens a file for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// ReadFile returns a file's full contents.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Truncate cuts a file to size bytes.
	Truncate(name string, size int64) error
	// Size returns a file's length, or an error wrapping fs.ErrNotExist.
	Size(name string) (int64, error)
	// SyncDir fsyncs a directory so renames within it are durable.
	SyncDir(dir string) error
}

// File is a writable file handle.
type File interface {
	io.Writer
	// Sync commits buffered data to stable storage.
	Sync() error
	// Close releases the handle (without syncing).
	Close() error
}

// OSFS is the production FS backed by the operating system.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Size implements FS.
func (OSFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// SyncDir implements FS. Platforms whose directory handles reject fsync
// report success — the rename itself is the best available barrier there.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

func isSyncUnsupported(err error) bool {
	var pe *fs.PathError
	if !errors.As(err, &pe) {
		return false
	}
	return pe.Op == "sync" || pe.Op == "fsync"
}

// join builds paths within the store directory.
func join(dir, name string) string { return filepath.Join(dir, name) }
