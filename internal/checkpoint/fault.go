package checkpoint

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
)

// ErrInjected marks a fault injected by a FaultPlan-wrapped backend, so
// tests can tell deliberate faults from real storage failures.
var ErrInjected = errors.New("injected checkpoint fault")

// FaultPlan describes a seeded schedule of storage faults. Wrapping a
// Backend with it yields a backend that corrupts reads, tears writes, and
// returns I/O errors pseudo-randomly but reproducibly: whether the k-th
// operation on a given blob name faults is a pure function of (Seed, name,
// k). Because each rank only ever touches its own (grid, rank) blobs and
// issues those operations in program order, the injected fault sequence is
// independent of goroutine scheduling — the same property the chaos
// campaign's replay invariant already relies on.
type FaultPlan struct {
	Seed int64

	// Per-operation probabilities, each in [0, 1].
	ReadCorrupt float64 // Get/Peek returns data with one bit flipped
	ReadErr     float64 // Get/Peek fails with ErrInjected
	WriteShort  float64 // Put persists a truncated prefix (torn write)
	WriteErr    float64 // Put fails with ErrInjected
}

// Wrap returns a Backend that forwards to b, injecting faults on the
// plan's schedule. A nil plan returns b unchanged.
func (fp *FaultPlan) Wrap(b Backend) Backend {
	if fp == nil {
		return b
	}
	return &faultBackend{inner: b, plan: *fp, ops: make(map[string]uint64)}
}

type faultBackend struct {
	inner Backend
	plan  FaultPlan

	mu  sync.Mutex
	ops map[string]uint64 // per-name operation counter
}

// rng returns the dedicated PRNG for the next operation on name. Using a
// per-name counter (not a global one) keeps the draw sequence a function of
// each rank's own program order.
func (fb *faultBackend) rng(name string) *rand.Rand {
	fb.mu.Lock()
	op := fb.ops[name]
	fb.ops[name] = op + 1
	fb.mu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(name))
	const mix = uint64(0x9e3779b97f4a7c15)
	return rand.New(rand.NewSource(fb.plan.Seed ^ int64(h.Sum64()) ^ int64(op*mix)))
}

func (fb *faultBackend) Put(name string, data []byte) error {
	rng := fb.rng(name)
	u := rng.Float64()
	switch {
	case u < fb.plan.WriteErr:
		return fmt.Errorf("checkpoint: write %s: %w", name, ErrInjected)
	case u < fb.plan.WriteErr+fb.plan.WriteShort:
		// Torn write: persist a strict prefix and report success, the
		// nastiest failure mode a real filesystem can hand back.
		n := 0
		if len(data) > 1 {
			n = 1 + rng.Intn(len(data)-1)
		}
		return fb.inner.Put(name, data[:n])
	}
	return fb.inner.Put(name, data)
}

// flipBit corrupts one random bit of a private copy of blob.
func flipBit(rng *rand.Rand, blob []byte) []byte {
	if len(blob) == 0 {
		return blob
	}
	cp := append([]byte(nil), blob...)
	i := rng.Intn(len(cp))
	cp[i] ^= 1 << uint(rng.Intn(8))
	return cp
}

func (fb *faultBackend) Get(name string) ([]byte, error) {
	rng := fb.rng(name)
	u := rng.Float64()
	if u < fb.plan.ReadErr {
		return nil, fmt.Errorf("checkpoint: read %s: %w", name, ErrInjected)
	}
	blob, err := fb.inner.Get(name)
	if err != nil {
		return nil, err
	}
	if u < fb.plan.ReadErr+fb.plan.ReadCorrupt {
		blob = flipBit(rng, blob)
	}
	return blob, nil
}

func (fb *faultBackend) Peek(name string, n int) ([]byte, int64, error) {
	rng := fb.rng(name)
	u := rng.Float64()
	if u < fb.plan.ReadErr {
		return nil, 0, fmt.Errorf("checkpoint: peek %s: %w", name, ErrInjected)
	}
	hdr, size, err := fb.inner.Peek(name, n)
	if err != nil {
		return nil, 0, err
	}
	if u < fb.plan.ReadErr+fb.plan.ReadCorrupt {
		hdr = flipBit(rng, hdr)
	}
	return hdr, size, nil
}

// Delete and Destroy pass through unfaulted: they model the control-plane
// operations the fault campaign is not targeting.
func (fb *faultBackend) Delete(name string) error { return fb.inner.Delete(name) }
func (fb *faultBackend) Destroy() error           { return fb.inner.Destroy() }
