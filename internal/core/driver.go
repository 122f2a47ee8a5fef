package core

import (
	"sync/atomic"
	"time"

	"mcbfs/internal/obs"
)

// The level driver: paper Algorithms 1–3 and the top-down half of the
// direction-optimizing extension share one level-synchronous skeleton,
// run by levelWorker. They differ only in two things the tier supplies:
//
//   - its chunk source: the worker pops its own window of the monotone
//     queue — its socket's queue in the multi-socket tier, which with
//     edge budgeting then steals from the busiest sibling socket;
//   - its edge-range kernel, which claims the targets of one adjacency
//     range: a CAS on the parent array (Algorithm 1), the double-checked
//     bitmap claim (Algorithm 2), the plain atomic claim of the
//     DisableDoubleCheck ablation, or claim-or-send (Algorithm 3).
//
// The kernel is selected once per search (topDownKernels) and called
// once per vertex adjacency or hub range, never once per edge, so no
// per-edge loop tests the tier or the ablation.
//
// All session tiers run over monotone queues: workers pop the current
// level's window [head, limit) and append discoveries past it; the
// level coordinator advances the window at the level barrier. A queue is
// never reset mid-search, so its final contents are the reached list
// the session's O(touched) reset walks.

// edgeKernel claims the targets nbrs of frontier vertex u (a whole
// adjacency list or one hub range), appending winners to the worker's
// local batch and counting its probes, atomics and sends in ws.stats.
type edgeKernel func(ws *searchWorker, u uint32, nbrs []uint32)

// topDownKernels selects the tier's edge-range kernel and, for the
// multi-socket tier, the bitmap claim its owned targets and delivered
// tuples go through. This is the only place DisableDoubleCheck is read.
// Algorithm 1 has no probe to disable: its CAS is the claim.
func topDownKernels(alg Algorithm, disableDoubleCheck bool) (scan, own edgeKernel) {
	own = (*searchWorker).checkedScan
	if disableDoubleCheck {
		own = (*searchWorker).atomicScan
	}
	switch alg {
	case AlgParallelSimple:
		return (*searchWorker).casScan, nil
	case AlgMultiSocket:
		return (*searchWorker).socketScan, own
	}
	return own, nil
}

// levelWorker is worker w's share of one parallel search: per level, a
// top-down expansion (or, in the direction-optimizing tier's dense
// levels, a bottom-up sweep), the multi-socket exchange where the tier
// has one, the stats deposit and the two-barrier level end.
func (s *Searcher) levelWorker(w int) {
	ws := &s.ws[w]
	ws.wr = s.coll.Worker(w)
	ws.q, ws.socket = s.q, 0
	if s.alg == AlgMultiSocket {
		ws.socket = s.o.Machine.SocketOfThread(w, s.workers)
		ws.q = s.qs[ws.socket]
	}
	ws.edges, ws.reached, ws.checkpoints = 0, 0, 0
	for {
		ws.stats = LevelStats{}
		if s.bottomUp.Load() {
			s.bottomUpLevel(ws, w)
		} else {
			tp := ws.wr.PhaseStart()
			s.expand(ws)
			if s.alg == AlgMultiSocket {
				s.exchange(ws, tp)
			} else {
				ws.flush()
				ws.wr.PhaseEnd(obs.PhaseLocalScan, tp)
			}
		}
		ws.edges += ws.stats.Edges
		s.stats.add(w, ws.stats)
		if s.endLevel(ws.wr) {
			return
		}
	}
}

// expand is the top-down scan of one level: pop chunks from the
// worker's chunk source and run the tier's kernel over each vertex's
// adjacency. With edge budgeting an over-budget vertex is posted to the
// hub board instead, and its edge ranges are claimed off the board by
// every worker.
func (s *Searcher) expand(ws *searchWorker) {
	offs, tgts := s.g.Offsets(), s.g.Targets()
	budget, hubs, scan := s.edgeBudget, s.hubs, s.scan
	chunkSize := s.o.ChunkSize
	steal := s.alg == AlgMultiSocket
	limit := s.limit
	if steal {
		limit = s.sockLimit[ws.socket]
	}
	for {
		// Cancellation checkpoint: on abort stop expanding and return
		// to the flush and barriers — every claimed vertex is already in
		// the local batch or the queue, so the unwound session's touched
		// list stays complete.
		if s.aborted(&ws.checkpoints) {
			return
		}
		var chunk []uint32
		if budget > 0 {
			chunk = ws.q.PopChunkEdges(chunkSize, budget, limit, offs)
			if chunk == nil && steal {
				// Own window drained: steal a budgeted chunk from the
				// busiest sibling socket instead of idling at the phase
				// barrier. Claim-or-send is symmetric in the expander's
				// socket, so a stolen chunk needs no special handling.
				if chunk = s.stealChunk(ws.socket); chunk != nil {
					ws.stats.Steals++
				}
			}
		} else {
			chunk = ws.q.PopChunkBounded(chunkSize, limit)
		}
		posted := false
		for _, u := range chunk {
			lo, hi := offs[u], offs[u+1]
			ws.stats.Frontier++
			if hubs != nil && hi-lo > budget {
				// Over-budget vertex: publish it for cooperative
				// edge-range expansion instead of scanning it alone.
				hubs.post(u, lo, hi)
				posted = true
				continue
			}
			ws.stats.Edges += hi - lo
			scan(ws, u, tgts[lo:hi])
		}
		if hubs != nil && (posted || chunk == nil) {
			// Drain the hub board — after posting (the poster guarantee
			// that makes unready-slot skips safe) and when the window
			// runs dry (so everyone helps finish the level's hubs
			// instead of idling at the barrier).
			did := false
			for {
				u, lo, hi, ok := hubs.claim(budget)
				if !ok {
					break
				}
				did = true
				ws.stats.Edges += hi - lo
				scan(ws, u, tgts[lo:hi])
			}
			if chunk == nil && !did {
				return
			}
		} else if chunk == nil {
			return
		}
	}
}

// endLevel is the two-barrier level end of every parallel tier: the
// coordinator elected at the first barrier advances the level, and the
// one elected at the second — once every worker has closed its phase
// timers — folds them into the obs layer. It reports whether the search
// is done.
func (s *Searcher) endLevel(wr *obs.WorkerRec) bool {
	tp := wr.PhaseStart()
	if s.bar.wait() {
		s.advance()
	}
	wr.PhaseEnd(obs.PhaseBarrierWait, tp)
	if s.bar.wait() {
		s.stats.foldPhases(!s.done.Load())
	}
	wr.NextLevel()
	return s.done.Load()
}

// advance is the level transition, run by the coordinator elected at
// the first level barrier (its writes are published to the other
// workers by the second): fold the level's stats, advance the monotone
// window (every socket's, in the multi-socket tier), decide termination
// and, in the direction-optimizing tier, the next level's direction.
func (s *Searcher) advance() {
	// A cancelled search folds and advances normally — the bookkeeping
	// below only ever sets done, so the abort decision stands and the
	// obs layer still sees a coherent final level.
	s.checkCancelAtBarrier()
	if s.hubs != nil {
		s.hubs.reset()
	}
	if s.bottomUp.Load() {
		// Bottom-up levels expand the window without popping it, so
		// worker counters miss the frontier; credit it here.
		s.stats.creditFrontier(s.limit - s.prevLimit)
	}
	s.stats.fold(&s.perLevel, time.Since(s.levelStart))
	s.levelStart = time.Now()
	var next int64
	if s.alg == AlgMultiSocket {
		next = s.advanceSockets()
	} else {
		// Bottom-up levels read the window without popping, leaving the
		// consume cursor behind; realign it so the next top-down level
		// pops only the new window.
		s.q.SkipTo(s.limit)
		old := s.limit
		s.limit = int64(s.q.Size())
		s.prevLimit = old
		next = s.limit - old
	}
	s.levels++
	switch {
	case next == 0 || (s.maxLevels > 0 && s.levels >= s.maxLevels):
		s.done.Store(true)
	case s.alg == AlgDirectionOptimizing:
		s.switchDirection(next)
	}
}

// casScan is the paper's Algorithm 1 kernel: visitation is claimed
// directly on the parent array with an atomic compare-and-swap ("the
// assignment in lines 10-12 must be executed atomically"). Its
// weaknesses are what the later tiers fix: the random working set is
// the full 4-byte-per-vertex parent array, and every scanned edge costs
// a lock-prefixed instruction (the load is part of the CAS, not a
// cheap probe).
func (ws *searchWorker) casScan(u uint32, nbrs []uint32) {
	parents := ws.s.parents
	for _, v := range nbrs {
		if atomic.CompareAndSwapUint32(&parents[v], NoParent, u) {
			ws.keep(v)
		}
	}
	ws.stats.AtomicOps += int64(len(nbrs))
}

// checkedScan is the paper's Algorithm 2 kernel, which makes two
// changes over Algorithm 1:
//
//  1. Visitation state moves from the parent array into a bitmap: the
//     random-access working set drops from 4 bytes to 1 bit per vertex,
//     which the paper's Fig. 2 shows is worth ~4x in probe rate.
//
//  2. The claim is double-checked: a plain bitmap read first, and only
//     if the bit looks clear the atomic read-and-set. In late levels
//     almost every target is already visited, so almost no
//     lock-prefixed operations execute (paper Fig. 4).
//
// The bit may be set by a racing worker between the probe and the
// read-and-set, which is why the atomic's return value, not the probe,
// decides the winner. The parent slot is written only by the winner, so
// the write itself needs no synchronization; the level barrier
// publishes it.
func (ws *searchWorker) checkedScan(u uint32, nbrs []uint32) {
	visited, parents := ws.s.visited, ws.s.parents
	for _, v := range nbrs {
		if visited.Get(int(v)) {
			continue
		}
		ws.stats.AtomicOps++
		if !visited.TestAndSet(int(v)) {
			parents[v] = u
			ws.keep(v)
		}
	}
	ws.stats.BitmapReads += int64(len(nbrs))
}

// atomicScan is checkedScan without the plain probe: the atomic
// read-and-set on every target. It is the DisableDoubleCheck ablation
// of the paper's Fig. 5.
func (ws *searchWorker) atomicScan(u uint32, nbrs []uint32) {
	visited, parents := ws.s.visited, ws.s.parents
	for _, v := range nbrs {
		if !visited.TestAndSet(int(v)) {
			parents[v] = u
			ws.keep(v)
		}
	}
	ws.stats.AtomicOps += int64(len(nbrs))
}

// keep records a vertex this worker claimed: it joins the local batch,
// which is flushed into the next-level window of the worker's queue
// when full.
func (ws *searchWorker) keep(v uint32) {
	ws.reached++
	ws.local = append(ws.local, v)
	if len(ws.local) == cap(ws.local) {
		ws.flush()
	}
}

// flush pushes the local batch into the worker's queue.
func (ws *searchWorker) flush() {
	ws.q.PushBatch(ws.local)
	ws.local = ws.local[:0]
}
