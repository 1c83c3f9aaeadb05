package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"ftsg/internal/vtime"

	"ftsg/internal/mpi"
)

// blobNames returns the sorted names of the blobs a MemBackend's map or a
// DirBackend's directory holds (temp files excluded).
func blobNames(t *testing.T, b Backend) []string {
	t.Helper()
	var out []string
	switch b := b.(type) {
	case *MemBackend:
		b.mu.RLock()
		for name := range b.blobs {
			out = append(out, name)
		}
		b.mu.RUnlock()
	case *DirBackend:
		entries, err := os.ReadDir(b.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() && !strings.HasSuffix(e.Name(), tmpSuffix) {
				out = append(out, e.Name())
			}
		}
	default:
		t.Fatalf("blobNames: unsupported backend %T", b)
	}
	slices.Sort(out)
	return out
}

// TestOpenDirSweepsOrphanTmp: temp files left behind by an interrupted
// write (crash between WriteFile and Rename) must be swept when the
// directory is reopened.
func TestOpenDirSweepsOrphanTmp(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "grid000_rank0000.gen000003.ckpt.tmp")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, genName(0, 0, 2))
	if err := os.WriteFile(keep, []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned .tmp file survived OpenDir")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Error("committed blob was swept")
	}
}

// TestDirPutFailureCleansUpTmp: when the commit rename fails, the temp
// file must not be left behind.
func TestDirPutFailureCleansUpTmp(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the blob's final path makes Rename fail.
	name := genName(0, 0, 0)
	if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(name, []byte("payload")); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, name+tmpSuffix)); !os.IsNotExist(err) {
		t.Error("failed Put left a stale .tmp file")
	}
}

// TestStoreSurvivesPutFailure: a failed backend write must not fail the
// run, and the generation must be withdrawn so Read never tries it.
func TestStoreSurvivesPutFailure(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		if err := s.Write(p, 0, 0, 10, []float64{1}); err != nil {
			t.Error(err)
			return
		}
		// Sabotage the next generation's path so its commit fails.
		if err := os.Mkdir(filepath.Join(dir, genName(0, 0, 1)), 0o755); err != nil {
			t.Error(err)
			return
		}
		if err := s.Write(p, 0, 0, 20, []float64{2}); err != nil {
			t.Errorf("Write surfaced a backend failure as a run error: %v", err)
			return
		}
		step, data, err := s.Read(p, 0, 0)
		if err != nil {
			t.Errorf("recovery failed after a single lost write: %v", err)
			return
		}
		if step != 10 || data[0] != 1 {
			t.Errorf("got (%d, %g), want surviving generation (10, 1)", step, data[0])
		}
	})
}

func TestDirPeek(t *testing.T) {
	b, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("0123456789")
	if err := b.Put("x", blob); err != nil {
		t.Fatal(err)
	}
	hdr, size, err := b.Peek("x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(hdr) != "0123" || size != 10 {
		t.Errorf("Peek = (%q, %d), want (0123, 10)", hdr, size)
	}
	// Peek beyond the blob returns what exists.
	hdr, size, err = b.Peek("x", 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(hdr) != "0123456789" || size != 10 {
		t.Errorf("long Peek = (%q, %d)", hdr, size)
	}
}

// TestMemBackendMatchesDir: the two real backends must be observationally
// identical through the Backend interface.
func TestMemBackendMatchesDir(t *testing.T) {
	backends := map[string]Backend{"mem": NewMem()}
	db, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backends["dir"] = db
	for label, b := range backends {
		t.Run(label, func(t *testing.T) {
			if err := b.Put("a", []byte("alpha")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("b", []byte("beta")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("a", []byte("alpha2")); err != nil {
				t.Fatal(err)
			}
			got, err := b.Get("a")
			if err != nil || !bytes.Equal(got, []byte("alpha2")) {
				t.Fatalf("Get(a) = (%q, %v)", got, err)
			}
			hdr, size, err := b.Peek("b", 2)
			if err != nil || string(hdr) != "be" || size != 4 {
				t.Fatalf("Peek(b) = (%q, %d, %v)", hdr, size, err)
			}
			if names := blobNames(t, b); !slices.Equal(names, []string{"a", "b"}) {
				t.Fatalf("stored blobs = %v, want [a b]", names)
			}
			if _, err := b.Get("missing"); err == nil {
				t.Fatal("Get(missing) succeeded")
			}
			if err := b.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete("a"); err != nil {
				t.Fatalf("double Delete errored: %v", err)
			}
			if _, err := b.Get("a"); err == nil {
				t.Fatal("Get after Delete succeeded")
			}
			if err := b.Destroy(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMemGetIsACopy: mutating a Get result must not corrupt the stored blob.
func TestMemGetIsACopy(t *testing.T) {
	b := NewMem()
	if err := b.Put("x", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := b.Get("x")
	got[0] = 99
	again, _ := b.Get("x")
	if again[0] != 1 {
		t.Error("Get returned a view into the stored blob")
	}
}

// TestMemBackendRecyclesBlobs pins where MemBackend's blobs come from and go
// to: the transport's buffer pool. A Put that overwrites, a Delete and a
// Destroy each hand the dropped blob back, so the next same-size Put copies
// into a recycled buffer and allocates nothing.
func TestMemBackendRecyclesBlobs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One processor: sync.Pool caches per processor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data := bytes.Repeat([]byte{7}, 12<<10)
	b := NewMem()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.Put("over", data))
	if n := testing.AllocsPerRun(100, func() { must(b.Put("over", data)) }); n != 0 {
		t.Errorf("overwriting Put: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		must(b.Put("gone", data))
		must(b.Delete("gone"))
	}); n != 0 {
		t.Errorf("Put then Delete: %v allocations, want 0", n)
	}
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		must(b.Put(name, data))
	}
	must(b.Destroy())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range names {
		must(b.Put(name, data))
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= uint64(len(data)) {
		t.Errorf("%d Puts after Destroy allocated %d bytes, want less than one %d-byte blob", len(names), d, len(data))
	}
	got, err := b.Get("c")
	must(err)
	if !bytes.Equal(got, data) {
		t.Error("blob stored in a recycled buffer reads back wrong")
	}
}

// TestMemBackendReadersNeverSeeAReleasedBlob races Get and Peek against the
// Delete and overwriting Put that recycle the blob they read. Every blob
// ever stored is one repeated byte, so a reader that copied after the lock
// was dropped would see a mix of two generations — or, in the race build,
// the 0xFF poison of a released buffer.
func TestMemBackendReadersNeverSeeAReleasedBlob(t *testing.T) {
	const size, rounds = 4 << 10, 2000
	b := NewMem()
	check := func(what string, got []byte) {
		for _, v := range got {
			if v != got[0] || v == 0xFF || v == 0 {
				t.Errorf("%s read a blob of %d bytes holding %#x and %#x", what, len(got), got[0], v)
				return
			}
		}
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	defer func() {
		close(done)
		readers.Wait()
	}()
	for r := 0; r < 2; r++ {
		readers.Add(2)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got, err := b.Get("x"); err == nil {
					if len(got) != size {
						t.Errorf("Get returned %d bytes, want %d", len(got), size)
						return
					}
					check("Get", got)
				}
			}
		}()
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got, n, err := b.Peek("x", 512); err == nil {
					if n != size || len(got) != 512 {
						t.Errorf("Peek returned %d of %d bytes, want 512 of %d", len(got), n, size)
						return
					}
					check("Peek", got)
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		gen := bytes.Repeat([]byte{byte(1 + i%200)}, size)
		if err := b.Put("x", gen); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := b.Delete("x"); err != nil {
				t.Fatal(err)
			}
		}
	}
}
