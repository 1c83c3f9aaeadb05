package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ftsg/internal/checkpoint"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
)

// outDir is where the benchmark leaves files: inside the checkout, ignored
// by git, holding trace.json, CPU profiles and every temporary file. It is
// relative to the checkout's root, where the benchmark is run from.
var outDir = "benchmark/out"

// --- checkpoint -------------------------------------------------------------

func layerCheckpoint(sz sizes, out *layerOut) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dirBackend, err := checkpoint.OpenDir(dir)
	if err != nil {
		return err
	}
	const band = 8192 // float64s: one 64 KiB sub-grid band
	data := filled(band, 1.5)
	n := sz.samples
	for _, b := range []struct {
		name    string
		backend checkpoint.Backend
	}{{"mem", checkpoint.NewMem()}, {"dir", dirBackend}} {
		store, err := checkpoint.Open(checkpoint.Options{Backend: b.backend})
		if err != nil {
			return err
		}
		var sink errSink
		var write, read dist
		var allocsPerWrite float64
		// Store.Write and Read charge virtual I/O time to the calling rank,
		// so the driver runs inside a one-rank world built once.
		_, err = mpi.Run(mpi.Options{NProcs: 1, Entry: func(p *mpi.Proc) {
			step := 0
			doWrite := func() {
				step++
				if err := store.Write(p, 0, 0, step, data); err != nil {
					sink.add("write: %v", err)
				}
			}
			for i := 0; i < 8; i++ {
				doWrite()
			}
			m0 := mallocs()
			write = distOf(timeOps(n, doWrite))
			allocsPerWrite = float64(mallocs()-m0) / float64(n)
			read = distOf(timeOps(n, func() {
				got, back, err := store.Read(p, 0, 0)
				if err != nil || got != step || len(back) != band || back[band-1] != 1.5 {
					sink.add("read: step %d len %d: %v", got, len(back), err)
				}
			}))
		}})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = sink.err()
		}
		if err != nil {
			return fmt.Errorf("%s backend: %w", b.name, err)
		}
		mibPerOp := float64(band*8) / mib
		out.set("checkpoint.write_mib_per_s."+b.name, mibPerOp/write.P50,
			fmt.Sprintf("n=%d writes of 64 KiB, p50=%.4g us p%d=%.4g us", write.N, write.P50*1e6, write.TailPct, write.Tail*1e6))
		out.set("checkpoint.read_mib_per_s."+b.name, mibPerOp/read.P50,
			fmt.Sprintf("n=%d reads of 64 KiB, p50=%.4g us p%d=%.4g us", read.N, read.P50*1e6, read.TailPct, read.Tail*1e6))
		if b.name == "mem" {
			out.set("checkpoint.allocs_per_write", allocsPerWrite, fmt.Sprintf("n=%d writes, mem backend", n))
		}
	}
	return nil
}

// bothPaths names the two execution paths a driver runs on, with the suffix
// the event path's metrics carry.
var bothPaths = []struct {
	suffix string
	event  bool
}{{"", false}, {".event", true}}

// --- point-to-point ---------------------------------------------------------

// pingPong runs n timed round trips of a float64 message inside one 2-rank
// world (after a warm-up tenth) and returns rank 0's per-trip seconds and
// the allocations per trip of both ranks together.
func pingPong(n, length int, event bool) (trips []float64, allocsPerTrip float64, err error) {
	var sink errSink
	warm := n/10 + 1
	trips = make([]float64, 0, n)
	buf := filled(length, 2)
	var m0 uint64
	o := mpi.Options{NProcs: 2, EventWorkers: workers()}
	if event {
		o.EventEntry = func(p *mpi.Proc, f *mpi.Fiber) {
			c := p.World()
			var trip func(k int)
			trip = func(k int) {
				if k == warm+n {
					if c.Rank() == 0 {
						allocsPerTrip = float64(mallocs()-m0) / float64(n)
					}
					return
				}
				if c.Rank() == 0 {
					if k == warm {
						m0 = mallocs()
					}
					t := time.Now()
					if err := mpi.FiberSend(c, 1, 0, buf); err != nil {
						sink.add("send: %v", err)
						return
					}
					mpi.FiberRecv(f, c, 1, 0, func(got []float64, _ mpi.Status, err error) {
						if err != nil || len(got) != length {
							sink.add("recv: %v", err)
							return
						}
						if k >= warm {
							trips = append(trips, time.Since(t).Seconds())
						}
						trip(k + 1)
					})
					return
				}
				mpi.FiberRecv(f, c, 0, 0, func(got []float64, _ mpi.Status, err error) {
					if err != nil {
						sink.add("recv: %v", err)
						return
					}
					if err := mpi.FiberSend(c, 0, 0, got); err != nil {
						sink.add("send: %v", err)
						return
					}
					trip(k + 1)
				})
			}
			trip(0)
		}
	} else {
		o.Entry = func(p *mpi.Proc) {
			c := p.World()
			for k := 0; k < warm+n; k++ {
				if c.Rank() == 0 {
					if k == warm {
						m0 = mallocs()
					}
					t := time.Now()
					if err := mpi.Send(c, 1, 0, buf); err != nil {
						sink.add("send: %v", err)
						return
					}
					got, _, err := mpi.Recv[float64](c, 1, 0)
					if err != nil || len(got) != length {
						sink.add("recv: %v", err)
						return
					}
					if k >= warm {
						trips = append(trips, time.Since(t).Seconds())
					}
					continue
				}
				got, _, err := mpi.Recv[float64](c, 0, 0)
				if err != nil {
					sink.add("recv: %v", err)
					return
				}
				if err := mpi.Send(c, 0, 0, got); err != nil {
					sink.add("send: %v", err)
					return
				}
			}
			if c.Rank() == 0 {
				allocsPerTrip = float64(mallocs()-m0) / float64(n)
			}
		}
	}
	if _, err := mpi.Run(o); err != nil {
		return nil, 0, err
	}
	return trips, allocsPerTrip, sink.err()
}

func layerP2P(sz sizes, out *layerOut) error {
	for _, path := range bothPaths {
		trips, allocs, err := pingPong(sz.samples, 128, path.event)
		if err != nil {
			return err
		}
		out.setDist("mpi.p2p.roundtrip_ns"+path.suffix, distOf(trips), 1e9, "per 128-float64 round trip in one 2-rank world")
		out.set("mpi.p2p.allocs_per_roundtrip"+path.suffix, allocs, fmt.Sprintf("n=%d round trips, both ranks", len(trips)))
	}
	const large = 8192 // 64 KiB: above the eager threshold
	trips, _, err := pingPong(max(sz.samples/4, 5), large, false)
	if err != nil {
		return err
	}
	d := distOf(trips)
	out.set("mpi.p2p.large_mib_per_s", 2*float64(large*8)/mib/d.P50,
		fmt.Sprintf("n=%d round trips of 64 KiB each way, p50=%.4g us p%d=%.4g us", d.N, d.P50*1e6, d.TailPct, d.Tail*1e6))
	return nil
}

// --- collectives ------------------------------------------------------------

// steadyRun runs the steady rank program once on a world of n ranks and
// returns rank 0's per-element microseconds and the allocations per rank
// and round between the first and the final barrier.
func steadyRun(n, rounds int, event bool, reg *metrics.Registry) (elems [numElems][]float64, allocsPerRankRound float64, err error) {
	var sink errSink
	var m0 uint64
	h := &steadyHooks{
		ready: func() { m0 = mallocs() },
		done:  func() { allocsPerRankRound = float64(mallocs()-m0) / float64(n) / float64(max(rounds, 1)) },
		element: func(kind int, start, end time.Time) {
			elems[kind] = append(elems[kind], float64(end.Sub(start).Nanoseconds())/1e3)
		},
	}
	opts := steadyOptions(n, rounds, event, h, &sink)
	opts.Metrics = reg
	if _, err := mpi.Run(opts); err != nil {
		return elems, 0, err
	}
	return elems, allocsPerRankRound, sink.err()
}

func layerColl(sz sizes, out *layerOut) error {
	rounds := max(sz.samples/100, 2)
	elems, _, err := steadyRun(64, 10*rounds, false, nil)
	if err != nil {
		return err
	}
	out.setDist("mpi.coll.barrier_us.64", distOf(elems[elemBarrier]), 1, "per barrier, rank 0's view, persistent 64-rank world")

	n := sz.midRanks
	for _, path := range bothPaths {
		elems, allocs, err := steadyRun(n, rounds, path.event, nil)
		if err != nil {
			return err
		}
		note := fmt.Sprintf("per call, rank 0's view, persistent %d-rank world", n)
		out.setDist("mpi.coll.barrier_us.1024"+path.suffix, distOf(elems[elemBarrier]), 1, note)
		out.setDist("mpi.coll.allreduce_small_us.1024"+path.suffix, distOf(elems[elemSmall]), 1, note+", 16 float64")
		out.setDist("mpi.coll.allreduce_ring_us.1024"+path.suffix, distOf(elems[elemRing]), 1, note+", 40 KiB")
		out.set("mpi.coll.allocs_per_rank_round.1024"+path.suffix, allocs,
			fmt.Sprintf("n=%d rounds x %d ranks: barrier + 2 allreduce + 8 sendrecv", rounds, n))
	}

	// Messages per round, exact: the difference between a two-round and a
	// one-round run cancels the first and the final barrier.
	count := func(rounds int) (int64, error) {
		reg := metrics.New()
		_, _, err := steadyRun(n, rounds, false, reg)
		return reg.Counter("mpi.sent.messages").Value(), err
	}
	one, err := count(1)
	if err != nil {
		return err
	}
	two, err := count(2)
	if err != nil {
		return err
	}
	out.set("mpi.coll.msgs_per_round.1024", float64(two-one), fmt.Sprintf("exact: messages sent in one round by %d ranks", n))
	return nil
}

// --- control plane: steady-state Split --------------------------------------

func layerSplit(sz sizes, out *layerOut) error {
	n := sz.midRanks
	splits := max(sz.samples/100, 2)
	for _, path := range bothPaths {
		var sink errSink
		var samples []float64
		o := mpi.Options{NProcs: n, EventWorkers: workers()}
		verify := func(c, sub *mpi.Comm, err error) bool {
			if err != nil || sub.Size() != n || sub.Rank() != c.Rank() {
				sink.add("rank %d split: %v", c.Rank(), err)
				return false
			}
			return true
		}
		if path.event {
			o.EventEntry = func(p *mpi.Proc, f *mpi.Fiber) {
				c := p.World()
				var next func(k int)
				next = func(k int) {
					if k == splits+1 {
						return
					}
					t := time.Now()
					mpi.FiberSplit(f, c, 0, c.Rank(), func(sub *mpi.Comm, err error) {
						if !verify(c, sub, err) {
							return
						}
						if c.Rank() == 0 && k > 0 {
							samples = append(samples, time.Since(t).Seconds())
						}
						next(k + 1)
					})
				}
				next(0)
			}
		} else {
			o.Entry = func(p *mpi.Proc) {
				c := p.World()
				for k := 0; k <= splits; k++ { // the first one warms up
					t := time.Now()
					sub, err := c.Split(0, c.Rank())
					if !verify(c, sub, err) {
						return
					}
					if c.Rank() == 0 && k > 0 {
						samples = append(samples, time.Since(t).Seconds())
					}
				}
			}
		}
		if _, err := mpi.Run(o); err != nil {
			return err
		}
		if err := sink.err(); err != nil {
			return err
		}
		out.setDist("mpi.rvz.split_us.1024"+path.suffix, distOf(samples), 1e6,
			fmt.Sprintf("per Split of a healthy %d-rank world, rank 0's view", n))
	}
	return nil
}

// --- world construction and bytes per rank ----------------------------------

// worldCost builds an n-rank world and, once every rank has passed the
// first barrier and parked in the next one, reads what the world cost:
// seconds from mpi.Run to that point, bytes allocated, and bytes still live
// (heap after a GC plus goroutine stacks) over the baseline.
func worldCost(n int, event bool) (buildS, allocB, liveB float64, err error) {
	var sink errSink
	buf := newLiveBuf()
	runtime.GC()
	base := liveBytes(buf)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	h := &steadyHooks{
		ready: func() {
			buildS = time.Since(start).Seconds()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocB = float64(after.TotalAlloc - before.TotalAlloc)
			// Rank 0 is still here, so every other rank is parked in (or
			// queued for) the final barrier while the heap is measured.
			runtime.GC()
			liveB = liveBytes(buf) - base
		},
		done: func() {},
	}
	if _, err := mpi.Run(steadyOptions(n, 0, event, h, &sink)); err != nil {
		return 0, 0, 0, err
	}
	return buildS, allocB, liveB, sink.err()
}

func layerWorld(sz sizes, out *layerOut) error {
	var small []float64
	for i := 0; i < max(sz.samples/50, 3); i++ {
		s, _, _, err := worldCost(64, false)
		if err != nil {
			return err
		}
		small = append(small, s/64)
	}
	out.setDist("mpi.world.construct_us_per_rank.64", distOf(small), 1e6, "mpi.Run to rank 0 past the first barrier, per rank")

	n := sz.bigRanks
	for _, path := range bothPaths {
		var build, alloc, live []float64
		for i := 0; i < sz.repeats; i++ {
			b, a, l, err := worldCost(n, path.event)
			if err != nil {
				return err
			}
			build, alloc, live = append(build, b/float64(n)), append(alloc, a/float64(n)), append(live, l/float64(n))
		}
		note := fmt.Sprintf("n=%d worlds of %d ranks", sz.repeats, n)
		if !path.event {
			out.set("mpi.world.construct_us_per_rank.4096", median(build)*1e6, note+", mpi.Run to rank 0 past the first barrier")
		}
		out.set("mpi.world.alloc_bytes_per_rank.4096"+path.suffix, median(alloc), note+", TotalAlloc through the first barrier")
		out.set("mpi.world.live_bytes_per_rank.4096"+path.suffix, median(live), note+", live heap + stacks, all ranks parked in a barrier")
	}
	return nil
}

// tempDir makes a scratch directory under outDir and points TMPDIR at it,
// so the checkpoint store's "dir" backend and flight-recorder dumps inside
// core.Run stay inside the checkout.
func tempDir() error {
	abs, err := filepath.Abs(filepath.Join(outDir, "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return err
	}
	return os.Setenv("TMPDIR", abs)
}
