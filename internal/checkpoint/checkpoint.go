// Package checkpoint implements the Checkpoint/Restart data-recovery
// technique: periodic per-process checkpoints of sub-grid state, restart
// from the most recent readable checkpoint, and recomputation of the steps
// taken since. Checkpoints are binary blobs with a CRC, stored through a
// pluggable Backend (local directory, in-memory, or a fault-injecting
// wrapper), and the simulated machine's disk latency T_I/O is charged to
// the process's virtual clock — the parameter whose two-orders-of-magnitude
// difference between OPL (3.52 s) and Raijin (0.03 s) drives the paper's
// Fig. 9b crossover.
//
// The store keeps the last K generations per (grid, rank) and falls back
// generation-by-generation when a read turns out corrupt, truncated, or
// unreadable; when every generation is exhausted it reports ErrNoCheckpoint
// and the caller recomputes from the initial condition. Every write is
// committed inline, on the writing rank, so T_I/O sits on its critical path
// as it does in the paper.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"sync"

	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

// encPool recycles encode buffers across Write calls: checkpoints are
// written at every detection point by every rank of a CR run, and the
// simulated ranks of one run (and the parallel experiment harness) write
// concurrently, so the scratch is pooled rather than kept per store.
var encPool = sync.Pool{New: func() any { return new(encBuf) }}

type encBuf struct{ b []byte }

const (
	magic   = 0x46545347 // "FTSG"
	version = 1

	headerSize  = 24             // magic + version + step + length
	minFileSize = headerSize + 4 // empty payload + CRC

	// DefaultGenerations is how many checkpoint generations a store keeps
	// per (grid, rank) unless configured otherwise: the latest plus one
	// fallback, the minimum that survives a single torn or corrupt write.
	DefaultGenerations = 2
)

// ErrNoCheckpoint is returned by Read when no generation of a checkpoint
// could be read and validated. The caller should fall back to the initial
// condition and recompute.
var ErrNoCheckpoint = errors.New("no readable checkpoint")

// encode serialises one checkpoint into eb (reusing its capacity) and
// returns the encoded bytes: a 24-byte header (magic, version, step,
// value count), the float64 payload, and a trailing CRC32 over everything
// before it.
func encode(step int, data []float64, eb *encBuf) []byte {
	n := headerSize + 8*len(data) + 4
	if cap(eb.b) < n {
		eb.b = make([]byte, n)
	}
	buf := eb.b[:n]
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint64(buf[8:], uint64(step))
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(data)))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(buf[n-4:], crc32.ChecksumIEEE(buf[:n-4]))
	return buf
}

// decode validates and deserialises a checkpoint blob. It must be safe on
// arbitrary adversarial input (see FuzzReadCheckpoint): every length is
// checked before use and the value count is bounded by the blob size
// before any allocation.
func decode(raw []byte) (step int, data []float64, err error) {
	if len(raw) < minFileSize {
		return 0, nil, fmt.Errorf("checkpoint: truncated file (%d bytes)", len(raw))
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, fmt.Errorf("checkpoint: CRC mismatch")
	}
	if binary.LittleEndian.Uint32(body[0:4]) != magic {
		return 0, nil, fmt.Errorf("checkpoint: bad magic")
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != version {
		return 0, nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	step = int(binary.LittleEndian.Uint64(body[8:16]))
	n64 := binary.LittleEndian.Uint64(body[16:24])
	if n64 > uint64(len(body)) || uint64(len(body)) != headerSize+8*n64 {
		return 0, nil, fmt.Errorf("checkpoint: length mismatch (%d values, %d bytes)", n64, len(body))
	}
	data = make([]float64, n64)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[headerSize+8*i:]))
	}
	return step, data, nil
}

// validHeader checks the cheap invariants AppendCandidateSteps relies on:
// intact magic and version in the first headerSize bytes, and a total blob
// size consistent with the declared value count. It cannot vouch for the
// CRC — that is Read's job — but it rejects truncated and foreign files
// without reading the payload.
func validHeader(hdr []byte, size int64) bool {
	if len(hdr) < headerSize {
		return false
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != magic {
		return false
	}
	if binary.LittleEndian.Uint32(hdr[4:8]) != version {
		return false
	}
	n64 := binary.LittleEndian.Uint64(hdr[16:24])
	if n64 > uint64(size) {
		return false
	}
	return uint64(size) == headerSize+8*n64+4
}

type genKey struct{ gridID, rank int }

// genName is the blob name of one generation, the bytes of
// fmt.Sprintf("grid%03d_rank%04d.gen%06d.ckpt", gridID, rank, gen), built
// without fmt: one allocation, the string. Write names each generation
// once; the index keeps the name for the reads and the rotation.
func genName(gridID, rank int, gen uint64) string {
	var b [64]byte
	s := append(b[:0], "grid"...)
	s = appendPadded(s, gridID, 3)
	s = append(s, "_rank"...)
	s = appendPadded(s, rank, 4)
	s = append(s, ".gen"...)
	s = appendPaddedUint(s, gen, 6)
	return string(append(s, ".ckpt"...))
}

// appendPadded appends v as %0<width>d formats it: a sign, then the digits
// zero-padded so that sign and digits fill at least width bytes.
func appendPadded(b []byte, v, width int) []byte {
	if v < 0 {
		return appendPaddedUint(append(b, '-'), uint64(-v), width-1)
	}
	return appendPaddedUint(b, uint64(v), width)
}

func appendPaddedUint(b []byte, v uint64, width int) []byte {
	var d [20]byte
	digits := strconv.AppendUint(d[:0], v, 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// Options configures a Store.
type Options struct {
	// Backend is the storage layer. Required.
	Backend Backend
	// Generations is how many checkpoint generations to keep per
	// (grid, rank). Defaults to DefaultGenerations; 1 disables fallback.
	Generations int
	// Metrics receives the store-side instruments: the
	// checkpoint.write.errors counter and the header-peek fallbacks of
	// AppendCandidateSteps. May be nil.
	Metrics *metrics.Registry
}

// Store writes and reads generational checkpoints through a Backend. Blobs
// are keyed by (grid ID, rank within the grid's process group), so a
// re-spawned replacement process — which takes over the failed process's
// exact position — finds its predecessor's state.
type Store struct {
	backend Backend
	keep    int
	metrics *metrics.Registry

	mu      sync.Mutex
	gens    map[genKey][]string // blob names of the generations being or already committed, oldest first
	nextGen map[genKey]uint64
}

// Open creates a Store over the given backend.
func Open(opts Options) (*Store, error) {
	if opts.Backend == nil {
		return nil, fmt.Errorf("checkpoint: no backend")
	}
	keep := opts.Generations
	if keep <= 0 {
		keep = DefaultGenerations
	}
	return &Store{
		backend: opts.Backend,
		keep:    keep,
		metrics: opts.Metrics,
		gens:    make(map[genKey][]string),
		nextGen: make(map[genKey]uint64),
	}, nil
}

func removeGen(list []string, name string) []string {
	for i, g := range list {
		if g == name {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Write stores one process's owned rows at the given step as a new
// generation, rotating out the oldest beyond the configured keep count.
// The machine's per-checkpoint write latency T_I/O and the byte counter
// are charged to the writing rank, in program order. A failed Put
// withdraws the generation from the index (Read will never try it) and
// counts a checkpoint.write.errors; the run continues, since older
// generations still cover recovery, so Write itself never fails.
func (s *Store) Write(p *mpi.Proc, gridID, rank, step int, data []float64) error {
	eb := encPool.Get().(*encBuf)
	buf := encode(step, data, eb)
	p.ComputeAttr(p.Machine().TIOWrite, vtime.CompDiskWrite)
	p.Metrics().Counter("checkpoint.bytes.written").Add(int64(len(buf)))

	key := genKey{gridID, rank}
	s.mu.Lock()
	gen := s.nextGen[key]
	s.nextGen[key] = gen + 1
	name := genName(gridID, rank, gen)
	list := append(s.gens[key], name)
	var drop string
	if len(list) > s.keep { // each Write adds one name, so one at most falls out
		drop = list[0]
		list = list[:copy(list, list[1:])] // in place: the index stops allocating
	}
	s.gens[key] = list
	s.mu.Unlock()

	err := s.backend.Put(name, buf)
	encPool.Put(eb)
	if err != nil {
		s.mu.Lock()
		s.gens[key] = removeGen(s.gens[key], name)
		s.mu.Unlock()
		s.metrics.Counter("checkpoint.write.errors").Inc()
	}
	if drop != "" {
		_ = s.backend.Delete(drop)
	}
	return nil
}

// Read loads the most recent readable checkpoint for (gridID, rank),
// charging the read latency once per attempted generation. Generations
// that turn out corrupt, truncated, or unreadable are skipped — counted on
// the checkpoint.generations.fallback counter — and the next-older one is
// tried. When every generation is exhausted (or none exists) Read returns
// ErrNoCheckpoint and the caller restarts from the initial condition.
func (s *Store) Read(p *mpi.Proc, gridID, rank int) (step int, data []float64, err error) {
	key := genKey{gridID, rank}
	s.mu.Lock()
	list := append([]string(nil), s.gens[key]...)
	s.mu.Unlock()

	for i := len(list) - 1; i >= 0; i-- {
		name := list[i]
		raw, gerr := s.backend.Get(name)
		if gerr == nil {
			p.ComputeAttr(p.Machine().TIORead, vtime.CompDiskRead)
			p.Metrics().Counter("checkpoint.bytes.read").Add(int64(len(raw)))
			step, data, err = decode(raw)
			if err == nil {
				return step, data, nil
			}
		}
		p.Metrics().Counter("checkpoint.generations.fallback").Inc()
	}
	return 0, nil, fmt.Errorf("checkpoint: grid %d rank %d: %w", gridID, rank, ErrNoCheckpoint)
}

// Generations returns the number of checkpoint generations the store keeps
// per (grid, rank). Restart negotiation uses it to size the fixed-width
// candidate exchange.
func (s *Store) Generations() int {
	return s.keep
}

// AppendCandidateSteps appends to dst the steps of the generations whose
// headers peek valid for (gridID, rank), newest generation first, and
// returns the extended slice. Like a stat, the header peek models
// filesystem metadata access and charges no virtual time; full CRC
// validation happens in ReadAt. Generations whose headers are damaged are
// counted on the fallback counter — they exist but cannot serve recovery.
//
// The restart path uses this to negotiate a common restore step across a
// grid's process group: every member must recompute from the same step, so
// recovery intersects the members' candidate lists rather than letting each
// rank independently pick its newest readable generation. Every rank of a
// restarting grid calls it, so it allocates nothing beyond dst's growth on
// the in-memory backend.
func (s *Store) AppendCandidateSteps(dst []int, gridID, rank int) []int {
	var names [4]string // room for the usual generation counts
	list := s.generations(gridID, rank, names[:0])
	start := len(dst)
	var hdr [headerSize]byte
	for i := len(list) - 1; i >= 0; i-- {
		h, size, err := s.peekHeader(list[i], &hdr)
		if err != nil || !validHeader(h, size) {
			s.metrics.Counter("checkpoint.generations.fallback").Inc()
			continue
		}
		// Only a few generations: a scan beats a set.
		if step := int(binary.LittleEndian.Uint64(h[8:16])); !slices.Contains(dst[start:], step) {
			dst = append(dst, step)
		}
	}
	return dst
}

// generations appends the blob names of (gridID, rank)'s generations,
// oldest first, to dst: a snapshot the caller reads without the lock.
func (s *Store) generations(gridID, rank int, dst []string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.gens[genKey{gridID, rank}]...)
}

// peekHeader reads the header of blob name: into hdr on the in-memory
// backend, so the check allocates nothing; as the backend's own copy
// otherwise.
func (s *Store) peekHeader(name string, hdr *[headerSize]byte) ([]byte, int64, error) {
	if m, ok := s.backend.(*MemBackend); ok {
		n, size, err := m.peekInto(name, hdr[:])
		return hdr[:n], size, err
	}
	return s.backend.Peek(name, headerSize)
}

// ReadAt loads and fully validates the checkpoint holding the given step
// for (gridID, rank), charging one read latency per generation actually
// read. Generations whose headers do not claim the requested step are
// skipped for free; a matching generation that fails validation (CRC,
// format, or a header that lied about its step) counts a fallback and the
// next older match is tried.
func (s *Store) ReadAt(p *mpi.Proc, gridID, rank, step int) ([]float64, error) {
	var names [4]string
	list := s.generations(gridID, rank, names[:0])
	var buf [headerSize]byte
	for i := len(list) - 1; i >= 0; i-- {
		name := list[i]
		hdr, size, err := s.peekHeader(name, &buf)
		if err != nil || !validHeader(hdr, size) ||
			int(binary.LittleEndian.Uint64(hdr[8:16])) != step {
			continue
		}
		raw, gerr := s.backend.Get(name)
		if gerr == nil {
			p.ComputeAttr(p.Machine().TIORead, vtime.CompDiskRead)
			p.Metrics().Counter("checkpoint.bytes.read").Add(int64(len(raw)))
			gotStep, data, derr := decode(raw)
			if derr == nil && gotStep == step {
				return data, nil
			}
		}
		p.Metrics().Counter("checkpoint.generations.fallback").Inc()
	}
	return nil, fmt.Errorf("checkpoint: grid %d rank %d step %d: %w", gridID, rank, step, ErrNoCheckpoint)
}

// Close releases the store. Every write was committed inside Write, so
// there is nothing left to do: Close is a no-op that leaves the backend's
// contents in place and always returns nil.
func (s *Store) Close() error { return nil }

// Remove deletes everything in the store's backend.
func (s *Store) Remove() error { return s.backend.Destroy() }

// PaperCount is the paper's Eq. 2 as printed: C = T / T_I/O with T the MTBF
// (half the application run time in the paper's setup). Note that as printed
// this makes the total write overhead C·T_I/O = T independent of the disk
// latency, which contradicts the paper's own Raijin observation; see
// YoungInterval for the interpretation used by default.
func PaperCount(mtbf, tio float64) int {
	if tio <= 0 {
		return 1
	}
	c := int(mtbf / tio)
	if c < 1 {
		c = 1
	}
	return c
}

// YoungInterval returns Young's optimal checkpoint interval
// sqrt(2 · MTBF · T_I/O) in seconds. We read the paper's Eq. 2 as this
// classical optimum: it reproduces the reported behaviour (few expensive
// checkpoints on OPL, many cheap ones on Raijin, with the total overhead
// dropping with T_I/O — the Fig. 9b crossover).
func YoungInterval(mtbf, tio float64) float64 {
	if mtbf <= 0 || tio <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2 * mtbf * tio)
}

// Plan converts a virtual-time checkpoint interval into a step interval and
// write count for a run of totalSteps steps of stepTime seconds each.
type Plan struct {
	// IntervalSteps is the number of solver steps between checkpoints
	// (at least 1).
	IntervalSteps int
	// Count is the number of checkpoint writes over the run.
	Count int
	// TotalSteps is the run length the plan was sized for. When set, a
	// checkpoint that would land on the final step is suppressed: the run
	// is over, so the write could never be restored from. Zero means
	// unbounded (no suppression).
	TotalSteps int
}

// NewPlan sizes a checkpoint plan with Young's interval.
func NewPlan(totalSteps int, stepTime, mtbf, tio float64) Plan {
	tau := YoungInterval(mtbf, tio)
	steps := totalSteps
	if stepTime > 0 && !math.IsInf(tau, 1) {
		steps = int(tau / stepTime)
	}
	if steps < 1 {
		steps = 1
	}
	if steps > totalSteps {
		steps = totalSteps
	}
	count := 0
	if steps > 0 && totalSteps > 0 {
		// Dues land on multiples of the interval strictly before the
		// final step: checkpointing the final state is pure overhead, as
		// there are no further steps to recover.
		count = (totalSteps - 1) / steps
	}
	return Plan{IntervalSteps: steps, Count: count, TotalSteps: totalSteps}
}
