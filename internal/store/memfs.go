package store

import (
	"fmt"
	"io/fs"
	"sync"
)

// MemFS is a pure in-memory FS that models fsync semantics: each file
// tracks how many of its bytes have been committed by Sync, and Crash
// discards a seeded-random portion of the unsynced tail — exactly what a
// power failure does to a page cache. Tests and the gossipsim restart
// experiment run the full durability protocol against it without
// touching the real disk.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	data    []byte
	durable int // bytes guaranteed to survive Crash
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// memHandle is an open append/write handle onto a memFile.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	closed bool
}

// MkdirAll implements FS (directories are implicit in MemFS).
func (m *MemFS) MkdirAll(path string) error { return nil }

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return &memHandle{fs: m, f: f}, nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
		m.files[name] = f
	}
	return &memHandle{fs: m, f: f}, nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// Rename implements FS. Renames are modeled as atomic and durable (the
// store fsyncs the parent directory after every rename on a real disk).
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	m.files[newname] = f
	delete(m.files, oldname)
	return nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("memfs: truncate %s to %d (len %d)", name, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.durable > int(size) {
		f.durable = int(size)
	}
	return nil
}

// Size implements FS.
func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

// SyncDir implements FS (directory metadata is always durable in MemFS).
func (m *MemFS) SyncDir(dir string) error { return nil }

// Crash simulates a power failure: every file keeps its synced prefix
// plus a seeded-random portion of whatever was written but never fsynced
// — the torn tail a real disk leaves behind. The same seed reproduces
// the same tail lengths, so crash outcomes are deterministic.
func (m *MemFS) Crash(seed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		unsynced := len(f.data) - f.durable
		if unsynced <= 0 {
			continue
		}
		h := mix64(uint64(seed) ^ hashName(name))
		keep := f.durable + int(h%uint64(unsynced+1))
		f.data = f.data[:keep]
		f.durable = keep
	}
}

// Write implements File.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

// Sync implements File: everything written so far becomes durable.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.f.durable = len(h.f.data)
	return nil
}

// Close implements File.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

// mix64 is the splitmix64 finalizer (same core as internal/faultnet).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashName FNV-1a hashes a file name.
func hashName(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
