package main

import (
	"fmt"
	"time"

	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// This file is the benchmark-owned rank program of the traced repair pass:
// it issues the same public mpi calls, in the same order, as
// recovery.ReconstructPlaced / RepairCommPlaced / ChildAttach, and times
// each one per rank on the host clock. It accumulates virtual time into a
// recovery.Stats exactly as the original does, and pinTranscript fails the
// pass if the two ever disagree — that pins the transcription. It handles
// no failure during the repair: the workload injects none, and any error is
// a failed check.

// Phases of the repair, in protocol order. detect is the barrier + agree
// round that opens (and, as detect2, closes) recovery.Reconstruct.
const (
	phDetect = iota
	phRevoke
	phShrink
	phSpawn
	phMerge
	phAgree
	phSplit
	phDetect2
	numPhases
)

var phaseNames = [numPhases]string{"detect", "revoke", "shrink", "spawn", "merge", "agree", "split", "detect"}

// phaseTable holds one slot per (world rank, phase); each rank writes only
// its own row, so no lock is needed.
type phaseTable struct {
	rows [][numPhases][2]time.Time
}

// newPhaseTable sizes the table for n original ranks plus the two
// replacements, whose world ranks follow the originals'.
func newPhaseTable(n int) *phaseTable {
	return &phaseTable{rows: make([][numPhases][2]time.Time, n+2)}
}

func (t *phaseTable) mark(wrank, phase int, start time.Time) {
	if wrank < len(t.rows) {
		t.rows[wrank][phase] = [2]time.Time{start, time.Now()}
	}
}

// report turns the table into spans and into the pass.mpi.rvz.* metrics: a
// phase's value is the latest end minus the earliest start over the ranks
// that ran it, and likewise the whole reconstruct. On each rank the phases
// are consecutive children of its Reconstruct span, so that span's self
// time is its duration minus theirs; recovery.self_share is the self time
// summed over ranks as a share of the Reconstruct spans summed over ranks —
// per rank, the parts sum to the whole.
func (t *phaseTable) report(tr *tracer, parent int, layer map[string]float64) {
	var first, last time.Time
	var spanSum, childSum time.Duration
	var phaseFirst, phaseLast [numPhases]time.Time
	for wrank, row := range t.rows {
		var rankFirst, rankLast time.Time
		for ph, se := range row {
			if se[0].IsZero() {
				continue
			}
			if rankFirst.IsZero() || se[0].Before(rankFirst) {
				rankFirst = se[0]
			}
			if se[1].After(rankLast) {
				rankLast = se[1]
			}
			if phaseFirst[ph].IsZero() || se[0].Before(phaseFirst[ph]) {
				phaseFirst[ph] = se[0]
			}
			if se[1].After(phaseLast[ph]) {
				phaseLast[ph] = se[1]
			}
		}
		if rankFirst.IsZero() {
			continue // a victim: it died before its first phase
		}
		id := tr.add("recovery.Reconstruct", parent, wrank, rankFirst, rankLast)
		spanSum += rankLast.Sub(rankFirst)
		for ph, se := range row {
			if !se[0].IsZero() {
				tr.add("mpi."+phaseNames[ph], id, wrank, se[0], se[1])
				childSum += se[1].Sub(se[0])
			}
		}
		if first.IsZero() || rankFirst.Before(first) {
			first = rankFirst
		}
		if rankLast.After(last) {
			last = rankLast
		}
	}
	for ph := range phaseFirst {
		layer["pass.mpi.rvz."+phaseNames[ph]+"_ms"] += phaseLast[ph].Sub(phaseFirst[ph]).Seconds() * 1e3
	}
	layer["pass.recovery.reconstruct_s"] = last.Sub(first).Seconds()
	if spanSum > 0 {
		layer["pass.recovery.self_share"] = float64(spanSum-childSum) / float64(spanSum)
	}
}

// transcriptOptions builds the transcribed rank program.
func transcriptOptions(n int, check *repairCheck, event bool, sink *errSink, phases *phaseTable) mpi.Options {
	o := reconstructOptions(n, check, event, sink)
	if event {
		o.EventEntry = func(p *mpi.Proc, f *mpi.Fiber) {
			st := new(recovery.Stats)
			if parent := p.Parent(); parent != nil {
				fiberAttach(p, f, parent, st, phases, func(rec *mpi.Comm, rank int, err error) {
					check.child(rec, rank, err, sink)
				})
				return
			}
			c := p.World()
			if check.isVictim(c.Rank()) {
				p.Kill()
			}
			fiberRepair(p, f, c, st, phases, func(rec *mpi.Comm, err error) {
				rank := -1
				if rec != nil {
					rank = rec.Rank()
				}
				check.survivor(c.Rank(), rec, rank, st, err, sink)
			})
		}
		return o
	}
	o.Entry = func(p *mpi.Proc) {
		var st recovery.Stats
		if parent := p.Parent(); parent != nil {
			rec, rank, err := attach(p, parent, &st, phases)
			check.child(rec, rank, err, sink)
			return
		}
		c := p.World()
		if check.isVictim(c.Rank()) {
			p.Kill()
		}
		rec, err := repair(p, c, &st, phases)
		rank := -1
		if rec != nil {
			rank = rec.Rank()
		}
		check.survivor(c.Rank(), rec, rank, &st, err, sink)
	}
	return o
}

// detect is Reconstruct's detection round: barrier, then agree. It reports
// whether the communicator is failure-free.
func detect(p *mpi.Proc, c *mpi.Comm, st *recovery.Stats, phases *phaseTable, phase int) bool {
	c.SetErrhandler(recovery.ErrorHandler(p))
	v0, h0 := p.Now(), time.Now()
	barrierErr := c.Barrier()
	_, agreeErr := c.Agree(1)
	phases.mark(p.WorldRank(), phase, h0)
	st.ListTime += p.Now() - v0
	return barrierErr == nil && agreeErr == nil
}

// repair is a survivor's path: detect, RepairCommPlaced's calls, detect.
func repair(p *mpi.Proc, broken *mpi.Comm, st *recovery.Stats, phases *phaseTable) (*mpi.Comm, error) {
	me := p.WorldRank()
	st.Iterations = 1
	if detect(p, broken, st, phases, phDetect) {
		return nil, fmt.Errorf("transcript: no failure detected")
	}
	vRepair := p.Now()

	h0 := time.Now()
	_ = broken.Revoke()
	phases.mark(me, phRevoke, h0)

	v0, h0 := p.Now(), time.Now()
	shrunk, err := broken.Shrink()
	phases.mark(me, phShrink, h0)
	if err != nil {
		return nil, fmt.Errorf("transcript: shrink: %w", err)
	}
	st.ShrinkTime += p.Now() - v0

	v0 = p.Now()
	failedRanks := recovery.FailedProcsList(broken, shrunk)
	st.ListTime += p.Now() - v0
	st.FailedRanks = failedRanks
	hosts, err := recovery.SameHostPlacement(p, failedRanks)
	if err != nil {
		return nil, fmt.Errorf("transcript: placement: %w", err)
	}

	v0, h0 = p.Now(), time.Now()
	inter, err := shrunk.SpawnMultiple(len(failedRanks), hosts, 0)
	phases.mark(me, phSpawn, h0)
	if err != nil {
		return nil, fmt.Errorf("transcript: spawn: %w", err)
	}
	st.SpawnTime += p.Now() - v0

	v0, h0 = p.Now(), time.Now()
	unordered, err := inter.IntercommMerge(false)
	phases.mark(me, phMerge, h0)
	if err != nil {
		return nil, fmt.Errorf("transcript: merge: %w", err)
	}
	st.MergeTime += p.Now() - v0

	v0, h0 = p.Now(), time.Now()
	_, err = inter.Agree(1)
	phases.mark(me, phAgree, h0)
	if err != nil {
		return nil, fmt.Errorf("transcript: agree: %w", err)
	}
	st.AgreeTime += p.Now() - v0

	if unordered.Rank() == 0 {
		for i, fr := range failedRanks {
			if err := mpi.SendOne(unordered, shrunk.Size()+i, recovery.MergeTag, fr); err != nil {
				return nil, fmt.Errorf("transcript: send old rank: %w", err)
			}
		}
	}
	key := recovery.SelectRankKey(unordered.Rank(), shrunk.Size(), failedRanks, unordered.Size())
	v0, h0 = p.Now(), time.Now()
	repaired, err := unordered.Split(0, key)
	phases.mark(me, phSplit, h0)
	if err != nil {
		return nil, fmt.Errorf("transcript: split: %w", err)
	}
	st.SplitTime += p.Now() - v0
	st.ReconstructTime += p.Now() - vRepair

	st.Iterations = 2
	if !detect(p, repaired, st, phases, phDetect2) {
		return nil, fmt.Errorf("transcript: repaired communicator is not failure-free")
	}
	return repaired, nil
}

// attach is a replacement's path: ChildAttach's calls, then detect.
func attach(p *mpi.Proc, parent *mpi.Comm, st *recovery.Stats, phases *phaseTable) (*mpi.Comm, int, error) {
	me := p.WorldRank()
	st.Iterations = 1
	vAttach := p.Now()
	parent.SetErrhandler(recovery.ErrorHandler(p))
	v0, h0 := p.Now(), time.Now()
	_, err := parent.Agree(1)
	phases.mark(me, phAgree, h0)
	st.AgreeTime += p.Now() - v0
	if err != nil {
		return nil, -1, fmt.Errorf("transcript: child agree: %w", err)
	}

	v0, h0 = p.Now(), time.Now()
	unordered, err := parent.IntercommMerge(true)
	phases.mark(me, phMerge, h0)
	if err != nil {
		return nil, -1, fmt.Errorf("transcript: child merge: %w", err)
	}
	st.MergeTime += p.Now() - v0

	oldRank, _, err := mpi.RecvOne[int](unordered, 0, recovery.MergeTag)
	if err != nil {
		return nil, -1, fmt.Errorf("transcript: child receive old rank: %w", err)
	}
	v0, h0 = p.Now(), time.Now()
	ordered, err := unordered.Split(0, oldRank)
	phases.mark(me, phSplit, h0)
	if err != nil {
		return nil, -1, fmt.Errorf("transcript: child split: %w", err)
	}
	st.SplitTime += p.Now() - v0
	st.ReconstructTime += p.Now() - vAttach

	st.Iterations = 2
	if !detect(p, ordered, st, phases, phDetect2) {
		return nil, -1, fmt.Errorf("transcript: repaired communicator is not failure-free")
	}
	return ordered, oldRank, nil
}

// --- the same calls on the event path ---------------------------------------

func fiberDetect(p *mpi.Proc, f *mpi.Fiber, c *mpi.Comm, st *recovery.Stats, phases *phaseTable, phase int, k func(clean bool)) {
	c.SetErrhandler(recovery.ErrorHandler(p))
	v0, h0 := p.Now(), time.Now()
	mpi.FiberBarrier(f, c, func(barrierErr error) {
		mpi.FiberAgree(f, c, 1, func(_ int, agreeErr error) {
			phases.mark(p.WorldRank(), phase, h0)
			st.ListTime += p.Now() - v0
			k(barrierErr == nil && agreeErr == nil)
		})
	})
}

func fiberRepair(p *mpi.Proc, f *mpi.Fiber, broken *mpi.Comm, st *recovery.Stats, phases *phaseTable, k func(*mpi.Comm, error)) {
	me := p.WorldRank()
	fail := func(what string, err error) { k(nil, fmt.Errorf("transcript: %s: %w", what, err)) }
	st.Iterations = 1
	fiberDetect(p, f, broken, st, phases, phDetect, func(clean bool) {
		if clean {
			k(nil, fmt.Errorf("transcript: no failure detected"))
			return
		}
		vRepair := p.Now()

		h0 := time.Now()
		_ = broken.Revoke()
		phases.mark(me, phRevoke, h0)

		v1, h1 := p.Now(), time.Now()
		mpi.FiberShrink(f, broken, func(shrunk *mpi.Comm, err error) {
			phases.mark(me, phShrink, h1)
			if err != nil {
				fail("shrink", err)
				return
			}
			st.ShrinkTime += p.Now() - v1

			v2 := p.Now()
			failedRanks := recovery.FailedProcsList(broken, shrunk)
			st.ListTime += p.Now() - v2
			st.FailedRanks = failedRanks
			hosts, err := recovery.SameHostPlacement(p, failedRanks)
			if err != nil {
				fail("placement", err)
				return
			}

			v3, h3 := p.Now(), time.Now()
			mpi.FiberSpawnMultiple(f, shrunk, len(failedRanks), hosts, 0, func(inter *mpi.Comm, err error) {
				phases.mark(me, phSpawn, h3)
				if err != nil {
					fail("spawn", err)
					return
				}
				st.SpawnTime += p.Now() - v3

				v4, h4 := p.Now(), time.Now()
				mpi.FiberIntercommMerge(f, inter, false, func(unordered *mpi.Comm, err error) {
					phases.mark(me, phMerge, h4)
					if err != nil {
						fail("merge", err)
						return
					}
					st.MergeTime += p.Now() - v4

					v5, h5 := p.Now(), time.Now()
					mpi.FiberAgree(f, inter, 1, func(_ int, err error) {
						phases.mark(me, phAgree, h5)
						if err != nil {
							fail("agree", err)
							return
						}
						st.AgreeTime += p.Now() - v5

						if unordered.Rank() == 0 {
							for i, fr := range failedRanks {
								if err := mpi.FiberSendOne(unordered, shrunk.Size()+i, recovery.MergeTag, fr); err != nil {
									fail("send old rank", err)
									return
								}
							}
						}
						key := recovery.SelectRankKey(unordered.Rank(), shrunk.Size(), failedRanks, unordered.Size())
						v6, h6 := p.Now(), time.Now()
						mpi.FiberSplit(f, unordered, 0, key, func(repaired *mpi.Comm, err error) {
							phases.mark(me, phSplit, h6)
							if err != nil {
								fail("split", err)
								return
							}
							st.SplitTime += p.Now() - v6
							st.ReconstructTime += p.Now() - vRepair

							st.Iterations = 2
							fiberDetect(p, f, repaired, st, phases, phDetect2, func(clean bool) {
								if !clean {
									k(nil, fmt.Errorf("transcript: repaired communicator is not failure-free"))
									return
								}
								k(repaired, nil)
							})
						})
					})
				})
			})
		})
	})
}

func fiberAttach(p *mpi.Proc, f *mpi.Fiber, parent *mpi.Comm, st *recovery.Stats, phases *phaseTable, k func(*mpi.Comm, int, error)) {
	me := p.WorldRank()
	fail := func(what string, err error) { k(nil, -1, fmt.Errorf("transcript: child %s: %w", what, err)) }
	st.Iterations = 1
	vAttach := p.Now()
	parent.SetErrhandler(recovery.ErrorHandler(p))
	v0, h0 := p.Now(), time.Now()
	mpi.FiberAgree(f, parent, 1, func(_ int, err error) {
		phases.mark(me, phAgree, h0)
		st.AgreeTime += p.Now() - v0
		if err != nil {
			fail("agree", err)
			return
		}
		v1, h1 := p.Now(), time.Now()
		mpi.FiberIntercommMerge(f, parent, true, func(unordered *mpi.Comm, err error) {
			phases.mark(me, phMerge, h1)
			if err != nil {
				fail("merge", err)
				return
			}
			st.MergeTime += p.Now() - v1
			mpi.FiberRecvOne(f, unordered, 0, recovery.MergeTag, func(oldRank int, _ mpi.Status, err error) {
				if err != nil {
					fail("receive old rank", err)
					return
				}
				v2, h2 := p.Now(), time.Now()
				mpi.FiberSplit(f, unordered, 0, oldRank, func(ordered *mpi.Comm, err error) {
					phases.mark(me, phSplit, h2)
					if err != nil {
						fail("split", err)
						return
					}
					st.SplitTime += p.Now() - v2
					st.ReconstructTime += p.Now() - vAttach

					st.Iterations = 2
					fiberDetect(p, f, ordered, st, phases, phDetect2, func(clean bool) {
						if !clean {
							k(nil, -1, fmt.Errorf("transcript: repaired communicator is not failure-free"))
							return
						}
						k(ordered, oldRank, nil)
					})
				})
			})
		})
	})
}

// pinTranscript runs recovery.Reconstruct and the transcription side by
// side on a 64-rank world with victims drawn from the same seed, and fails
// unless the run's virtual time and rank 0's recovery.Stats are identical.
func pinTranscript(seed int64, event bool) error {
	const n = 64
	victims := drawVictims(seed, n)
	run := func(transcribed bool) (float64, recovery.Stats, error) {
		var sink errSink
		check := newRepairCheck(n, victims)
		opts := reconstructOptions(n, check, event, &sink)
		if transcribed {
			opts = transcriptOptions(n, check, event, &sink, newPhaseTable(n))
		}
		rep, err := mpi.Run(opts)
		if err == nil {
			err = sink.err()
		}
		if err == nil {
			err = check.verdict(rep)
		}
		if err != nil {
			return 0, recovery.Stats{}, err
		}
		return rep.MaxVirtualTime, check.rank0Stats, nil
	}
	wantT, want, err := run(false)
	if err != nil {
		return fmt.Errorf("reference repair: %w", err)
	}
	gotT, got, err := run(true)
	if err != nil {
		return fmt.Errorf("transcribed repair: %w", err)
	}
	if gotT != wantT {
		return fmt.Errorf("transcription's virtual time %v, recovery's %v", gotT, wantT)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		return fmt.Errorf("transcription's stats %+v, recovery's %+v", got, want)
	}
	return nil
}
