package core

import (
	"time"

	"mcbfs/internal/obs"
	"mcbfs/internal/queue"
)

// The paper's Algorithm 3, the multi-socket tier.
//
// The graph's vertex range, the parent array and the visited bitmap are
// partitioned into contiguous per-socket blocks (Algorithm 3 line 2).
// A socket's threads only ever mutate their own block, so the atomic
// traffic that Figure 3 shows collapsing across socket boundaries stays
// socket-local. A vertex discovered by a thread of another socket is
// not claimed remotely; instead the (vertex, parent) tuple travels
// through that socket's channel — a FastForward queue with TicketLock
// guarded ends — in batches that amortize the locking (lines 26,
// 28-35).
//
// Each level runs in two phases separated by barriers:
//
//	phase 1: expand the socket's current window (the shared level
//	         driver, with socketScan as its kernel); owned discoveries
//	         are claimed immediately, remote ones batched into channels;
//	phase 2: drain the socket's own channel, claiming the delivered
//	         tuples exactly as owned ones (exchange).
//
// On the logical machine of this reproduction the "sockets" are
// goroutine groups; the data partitioning, channel wiring and two-phase
// schedule are identical to the paper's. Each socket's queue is
// monotone — its level window advanced by the coordinator — so the
// union of the per-socket queues is the reached list the session's
// O(touched) reset walks.

// ownedBlock caps the multi-socket kernel's owned-target block: how
// many owned targets (or delivered tuples sharing a parent) go through
// one call of the bitmap claim.
const ownedBlock = 256

// socketScan is Algorithm 3's claim-or-send kernel: a target owned by
// another socket is batched for that socket's channel, and the owned
// targets are claimed through the session's bitmap claim (Searcher.own)
// in blocks of cap(ws.owned).
func (ws *searchWorker) socketScan(u uint32, nbrs []uint32) {
	s := ws.s
	own := ws.owned[:0]
	for _, v := range nbrs {
		if sck := s.part.DetermineSocket(v); sck != ws.socket {
			ws.send(sck, queue.Tuple{V: v, Parent: u})
			continue
		}
		own = append(own, v)
		if len(own) == cap(own) {
			s.own(ws, u, own)
			own = own[:0]
		}
	}
	if len(own) > 0 {
		s.own(ws, u, own)
	}
}

// send appends a tuple to the batch for socket sck, handing the batch
// to that socket's channel when full.
func (ws *searchWorker) send(sck int, t queue.Tuple) {
	ws.stats.RemoteSends++
	b := append(ws.remote[sck], t)
	if len(b) == cap(b) {
		ws.s.channels[sck].SendBatch(b)
		ws.wr.RemoteBatch(sck, len(b))
		b = b[:0]
	}
	ws.remote[sck] = b
}

// exchange ends phase 1 of a multi-socket level and runs phase 2. tp is
// the start of the worker's phase-1 scan.
func (s *Searcher) exchange(ws *searchWorker, tp time.Time) {
	wr := ws.wr
	// End-of-phase flush of the partial batches, skipping empty ones:
	// in late levels most destinations have nothing pending, and an
	// empty flush is pure overhead — a per-socket call per worker per
	// level and zero-length tracer-hook noise. On abort the batches are
	// dropped rather than sent: their tuples were never claimed
	// anywhere, and phase 2 discards in-flight ones.
	cancelled := s.cancel.Load()
	for sck, b := range ws.remote {
		if len(b) == 0 {
			continue
		}
		if !cancelled {
			s.channels[sck].SendBatch(b)
			wr.RemoteBatch(sck, len(b))
		}
		ws.remote[sck] = b[:0]
	}
	wr.PhaseEnd(obs.PhaseLocalScan, tp)

	// All sends for this level are complete once every worker reaches
	// the barrier; only then may anyone drain.
	tp = wr.PhaseStart()
	s.bar.wait()
	wr.PhaseEnd(obs.PhaseBarrierWait, tp)

	// Phase 2: drain this socket's channel. The drain must run even on
	// abort — a tuple left in a channel would be claimed by the *next*
	// search and corrupt its tree — but an aborting worker discards
	// instead of claiming, keeping the unwind bounded by what was
	// already sent. Workers of one socket may mix the two modes during
	// an abort race; both leave the channel empty and every claim on
	// the touched list.
	tp = wr.PhaseStart()
	ch := s.channels[ws.socket]
	if s.cancel.Load() {
		ch.DiscardAll()
	} else {
		for {
			got := ch.ReceiveBatch(ws.recvBuf)
			if got == 0 {
				break
			}
			ws.claimTuples(ws.recvBuf[:got])
		}
	}
	ws.flush()
	wr.PhaseEnd(obs.PhaseQueueDrain, tp)
}

// claimTuples claims delivered tuples through the session's bitmap
// claim. A sender batches a vertex's remote targets consecutively, so
// runs of tuples sharing a parent go through Searcher.own together,
// exactly as the owned targets of a scan.
func (ws *searchWorker) claimTuples(ts []queue.Tuple) {
	own := ws.owned[:0]
	var parent uint32
	for _, t := range ts {
		if len(own) > 0 && (t.Parent != parent || len(own) == cap(own)) {
			ws.s.own(ws, parent, own)
			own = own[:0]
		}
		parent = t.Parent
		own = append(own, t.V)
	}
	if len(own) > 0 {
		ws.s.own(ws, parent, own)
	}
}

// stealChunk claims one edge-budgeted chunk from the current-level
// window of the sibling socket queue with the most unconsumed work.
// It rescans on a lost race — the head cursors are monotone within a
// level, so every retry sees strictly less remaining work and the loop
// terminates. Returns nil when every sibling window is drained.
//
// Stealing only moves which worker *expands* a frontier vertex; the
// discovered children still go through claim-or-send, so data ownership
// (parents, bitmap, channels) is untouched and phase-2 drains behave
// exactly as without stealing. The sockLimit entries are written by the
// level coordinator and published by the barrier, so reading them here
// is race-free.
func (s *Searcher) stealChunk(this int) []uint32 {
	offs := s.g.Offsets()
	for {
		best, bestRem := -1, int64(0)
		for sck, q := range s.qs {
			if sck == this {
				continue
			}
			if rem := s.sockLimit[sck] - q.Head(); rem > bestRem {
				best, bestRem = sck, rem
			}
		}
		if best < 0 {
			return nil
		}
		if chunk := s.qs[best].PopChunkEdges(s.o.ChunkSize, s.edgeBudget, s.sockLimit[best], offs); chunk != nil {
			return chunk
		}
	}
}

// advanceSockets is the multi-socket part of the level transition:
// sample the channels (no sends are in flight between the barriers, so
// the per-level deltas are exact) and advance every socket's queue
// window. It returns the size of the next level's frontier.
func (s *Searcher) advanceSockets() int64 {
	if s.chanStats && s.coll != nil {
		for sck, c := range s.channels {
			cs := c.Stats()
			s.coll.AddChannelSample(sck, cs.Tuples-s.prevChan[sck].Tuples,
				cs.Batches-s.prevChan[sck].Batches, cs.MaxLen, cs.MaxBatch)
			s.prevChan[sck] = cs
			c.ResetHighWater()
		}
	}
	var total int64
	for sck, q := range s.qs {
		sz := int64(q.Size())
		total += sz - s.sockLimit[sck]
		s.sockLimit[sck] = sz
	}
	return total
}
