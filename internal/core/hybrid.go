package core

import (
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
)

// Direction-optimizing BFS: an extension beyond the paper (the idea was
// published by Beamer et al. two years later and became the Graph500
// standard), included here as the natural "future work" of the paper's
// design. On power-law graphs the middle BFS levels contain most of the
// graph; exploring them top-down scans almost every edge even though
// almost every target is already visited. The bottom-up pass inverts
// the roles: each *unvisited* vertex scans its in-neighbours for a
// frontier member and claims itself on the first hit — with two
// consequences the paper's cost model immediately appreciates:
//
//   - early exit: a vertex stops scanning at its first frontier parent,
//     skipping the bulk of its in-edges in the dense levels;
//   - no atomics at all: each vertex is examined by exactly one worker
//     (vertices are range-partitioned), so the claim is a plain write —
//     the logical conclusion of the paper's Fig. 3/4 war on
//     lock-prefixed operations.
//
// The switch heuristic follows Beamer's alpha/beta rule on frontier
// size. Because bottom-up scans in-edges with early exit, the
// EdgesTraversed of a hybrid run counts the edges actually examined,
// which is typically far below the m_a of a top-down run — that gap IS
// the optimization.

// The default alpha/beta thresholds: switch to bottom-up when the
// frontier exceeds n/alpha vertices, back below n/beta. Tunable per
// session via Options.HybridAlpha / Options.HybridBeta.
const (
	defaultHybridAlpha = 14
	defaultHybridBeta  = 24
)

// bottomUpLevel is worker w's share of one bottom-up level of the
// direction-optimizing tier; top-down levels run the shared level
// driver with the single-socket kernel. The current frontier is the
// window [prevLimit, limit) of the session's monotone queue, read by
// Window (bottom-up levels never pop it; advance realigns the consume
// cursor afterwards).
func (s *Searcher) bottomUpLevel(ws *searchWorker, w int) {
	wr := ws.wr
	gt := s.gt
	workers := s.workers

	// Range partition for the sweep: worker w owns [lo, hi), so each
	// unvisited vertex is examined by exactly one worker and claims
	// itself with plain writes. Boundaries stay aligned to 64-vertex
	// words so a worker's visited/parent updates never share a cache
	// word's vertices with a neighbour's range. With edge budgeting the
	// boundaries come from an edge-prefix-sum partition of the
	// transpose (s.buPart), giving each worker ~equal in-edge mass
	// instead of ~equal vertex count; without it the legacy uniform
	// vertex split applies.
	var lo, hi int
	if s.buPart != nil {
		lo, hi = s.buPart[w], s.buPart[w+1]
	} else {
		words := (s.n + 63) / 64
		lo = words * w / workers * 64
		hi = words * (w + 1) / workers * 64
		if hi > s.n {
			hi = s.n
		}
	}

	// Build the frontier bitmap from an index partition of the current
	// window: worker w sets the bits of its chunk, O(frontier/P) rather
	// than every worker filter-scanning the whole frontier
	// (O(frontier*P) total). Chunks hold arbitrary vertices, so bits are
	// set with the atomic bitmap's word-OR.
	tp := wr.PhaseStart()
	frontierVerts := s.q.Window(s.prevLimit, s.limit)
	flo := len(frontierVerts) * w / workers
	fhi := len(frontierVerts) * (w + 1) / workers
	for _, v := range frontierVerts[flo:fhi] {
		s.frontier.Set(int(v))
	}
	wr.PhaseEnd(obs.PhaseFrontierBuild, tp)
	tp = wr.PhaseStart()
	s.bar.wait()
	wr.PhaseEnd(obs.PhaseBarrierWait, tp)

	// Bottom-up sweep over this worker's unvisited range. The
	// cancellation checkpoint sits off the per-vertex path (the sweep's
	// selling point is no atomics); an abort skips the rest of the range
	// but still runs the flush, barrier and frontier-clear passes below,
	// so no stale frontier bit or unqueued claim survives into the next
	// search.
	tp = wr.PhaseStart()
	for v := lo; v < hi; v++ {
		if v&4095 == 0 && s.aborted(&ws.checkpoints) {
			break
		}
		if s.visited.Get(v) {
			continue
		}
		ws.stats.BitmapReads++
		for _, u := range gt.Neighbors(graph.Vertex(v)) {
			ws.stats.Edges++
			if s.frontier.Get(int(u)) {
				// Sole owner of v: plain writes suffice.
				s.visited.Set(v)
				s.parents[v] = uint32(u)
				ws.keep(uint32(v))
				break
			}
		}
	}
	ws.flush()
	wr.PhaseEnd(obs.PhaseBottomUpScan, tp)

	// Everyone must finish sweeping before anyone clears: a cleared bit
	// would hide a frontier parent from a worker still scanning,
	// deferring the discovery one level and corrupting BFS depths.
	tp = wr.PhaseStart()
	s.bar.wait()
	wr.PhaseEnd(obs.PhaseBarrierWait, tp)

	// Clear this chunk's frontier bits for the next level — the same
	// index partition and atomic word ops as the build pass.
	tp = wr.PhaseStart()
	for _, v := range frontierVerts[flo:fhi] {
		s.frontier.Clear(int(v))
	}
	wr.PhaseEnd(obs.PhaseFrontierBuild, tp)
}

// switchDirection applies the alpha/beta rule to the size f of the next
// frontier: leave bottom-up when it falls below n/beta, enter it when it
// exceeds n/alpha.
func (s *Searcher) switchDirection(f int64) {
	if s.bottomUp.Load() {
		if f < int64(s.n/s.o.HybridBeta) {
			s.bottomUp.Store(false)
		}
	} else if f > int64(s.n/s.o.HybridAlpha) {
		s.bottomUp.Store(true)
	}
}
