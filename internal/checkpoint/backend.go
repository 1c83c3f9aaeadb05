package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ftsg/internal/mpi"
)

// Backend is the storage layer under a Store: a flat namespace of
// checkpoint blobs. Implementations must be safe for concurrent use by
// the simulated ranks of a run.
//
// The Store treats a Backend as unreliable: Put may fail or persist torn
// data, Get may return corrupt bytes — the generational fallback above is
// what turns that into recoverable behaviour. The shipped implementations
// are DirBackend (real files, the default), MemBackend (in-process, for
// the harness's thousands of short runs) and the fault-injecting wrapper
// returned by FaultPlan.Wrap (chaos testing).
type Backend interface {
	// Put durably stores data under name, replacing any previous blob.
	Put(name string, data []byte) error
	// Get returns the blob stored under name.
	Get(name string) ([]byte, error)
	// Peek returns up to n leading bytes of the blob and its total size,
	// without reading the whole blob — the cheap header validation used
	// by Store.AppendCandidateSteps.
	Peek(name string, n int) ([]byte, int64, error)
	// Delete removes the blob (no error if absent).
	Delete(name string) error
	// Destroy releases the backend and deletes everything it stores.
	Destroy() error
}

// tmpSuffix marks in-flight DirBackend writes; orphans (left behind by a
// crash between write and rename) are swept when the directory is opened.
const tmpSuffix = ".tmp"

// DirBackend stores each blob as one file in a directory, written via a
// temp file + rename so a crash never leaves a half-written blob under its
// final name. Opening the directory sweeps orphaned temp files.
type DirBackend struct {
	dir string
}

// OpenDir creates (if needed) a checkpoint directory and sweeps orphaned
// temp files left behind by earlier interrupted writes.
func OpenDir(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &DirBackend{dir: dir}, nil
}

func (b *DirBackend) path(name string) string { return filepath.Join(b.dir, name) }

// Put writes the blob to a temp file and renames it into place. A failure
// on either step removes the temp file, so no orphans accumulate on the
// error path.
func (b *DirBackend) Put(name string, data []byte) error {
	tmp := b.path(name) + tmpSuffix
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := os.Rename(tmp, b.path(name)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: commit: %w", err)
	}
	return nil
}

// Get reads the whole blob.
func (b *DirBackend) Get(name string) ([]byte, error) {
	raw, err := os.ReadFile(b.path(name))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return raw, nil
}

// Peek reads up to n leading bytes and the file size without reading the
// whole blob.
func (b *DirBackend) Peek(name string, n int) ([]byte, int64, error) {
	f, err := os.Open(b.path(name))
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: peek: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: peek: %w", err)
	}
	buf := make([]byte, n)
	m, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, 0, fmt.Errorf("checkpoint: peek: %w", err)
	}
	return buf[:m], st.Size(), nil
}

// Delete removes the blob; a missing file is not an error.
func (b *DirBackend) Delete(name string) error {
	err := os.Remove(b.path(name))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: delete: %w", err)
	}
	return nil
}

// Destroy removes the directory and everything in it.
func (b *DirBackend) Destroy() error { return os.RemoveAll(b.dir) }

// MemBackend keeps blobs in process memory — no disk I/O at all. The
// simulated T_I/O cost model is charged by the Store either way, so runs
// backed by memory produce byte-identical virtual results while skipping
// the real filesystem entirely; the experiment harness uses it for its
// thousands of short-lived runs.
//
// Blobs live in buffers from the transport's pool and go back to it the
// moment the map drops them (overwrite, Delete, Destroy), so a sweep's
// rotating generations recycle a handful of buffers. A blob is therefore
// only valid while mu is held: readers copy under the read lock.
type MemBackend struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *MemBackend {
	return &MemBackend{blobs: make(map[string][]byte)}
}

// Put stores a private copy of data, recycling the blob it replaces.
func (b *MemBackend) Put(name string, data []byte) error {
	cp := mpi.AcquireBuf[byte](len(data))
	copy(cp, data)
	b.mu.Lock()
	old := b.blobs[name]
	b.blobs[name] = cp
	b.mu.Unlock()
	mpi.ReleaseBuf(old)
	return nil
}

// Get returns a copy of the blob.
func (b *MemBackend) Get(name string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	blob, ok := b.blobs[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: read: %w", os.ErrNotExist)
	}
	return append([]byte(nil), blob...), nil
}

// Peek returns up to n leading bytes and the blob size.
func (b *MemBackend) Peek(name string, n int) ([]byte, int64, error) {
	hdr := make([]byte, n)
	m, size, err := b.peekInto(name, hdr)
	if err != nil {
		return nil, 0, err
	}
	return hdr[:m], size, nil
}

// peekInto is Peek into the caller's buffer: it copies up to len(dst)
// leading bytes of the blob into dst and returns how many, with the blob
// size. The Store's header checks use it to allocate nothing.
func (b *MemBackend) peekInto(name string, dst []byte) (int, int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	blob, ok := b.blobs[name]
	if !ok {
		return 0, 0, fmt.Errorf("checkpoint: peek: %w", os.ErrNotExist)
	}
	return copy(dst, blob), int64(len(blob)), nil
}

// Delete removes the blob (no error if absent) and recycles its buffer.
func (b *MemBackend) Delete(name string) error {
	b.mu.Lock()
	old := b.blobs[name]
	delete(b.blobs, name)
	b.mu.Unlock()
	mpi.ReleaseBuf(old)
	return nil
}

// Destroy drops every blob, recycling their buffers.
func (b *MemBackend) Destroy() error {
	b.mu.Lock()
	old := b.blobs
	b.blobs = make(map[string][]byte)
	b.mu.Unlock()
	for _, blob := range old {
		mpi.ReleaseBuf(blob)
	}
	return nil
}
