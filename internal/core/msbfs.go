package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"mcbfs/internal/bitmap"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/queue"
)

// This file implements batched multi-source BFS (MS-BFS): up to 64
// single-source searches advanced by one shared traversal. Where the
// paper's Algorithms 2–3 shrink one search's random working set (the
// visited bitmap) to relieve the memory-bandwidth bottleneck, MS-BFS
// attacks the same bottleneck from the other side for query-serving
// workloads: N concurrent queries over the same CSR no longer pay N
// full edge scans — one pass over a vertex's adjacency advances every
// lane whose frontier contains it, so each cache-missing edge load is
// amortized across the batch.
//
// The state is three lane-mask vectors (bitmap.Lanes, one 64-bit word
// per vertex):
//
//	seen[v]      — lanes that have reached v (the batched visited set)
//	visit[v]     — lanes whose current frontier contains v
//	visitNext[v] — lanes discovering v in this level
//
// and a lane-strided parent array. The per-neighbour claim is the
// paper's double-checked pattern lifted to lane masks: a plain read of
// seen[w] first (d = visit[v] &^ seen[w]), and only when some lane bit
// looks clear the atomic OR — whose returned previous value, not the
// probe, decides which lane bits this worker actually won.
//
// Parallelism reuses the level-barrier machinery of the session tiers:
// workers own static vertex ranges of the frontier vectors, a
// coordinator elected at the level barrier folds activity masks and
// decides termination, and the whole engine is a persistent worker pool
// with pooled state and an O(touched) reset, mirroring the Searcher
// contract.

// MaxLanes is the number of concurrent sources one batch traversal can
// carry: the lane words are 64 bits wide.
const MaxLanes = 64

// BatchAlgorithmName labels MS-BFS traversals in telemetry samples.
const BatchAlgorithmName = "msbfs"

// BatchOptions configures a BatchSearcher. The zero value is a 64-lane
// engine with GOMAXPROCS workers.
type BatchOptions struct {
	// Width is the maximum number of lanes (sources) per traversal,
	// 1..64. It sizes the lane-strided parent array, so sessions that
	// only ever batch 8 queries can pay an 8th of the parent memory.
	// 0 means 64.
	Width int
	// Threads is the number of worker goroutines; 0 means
	// runtime.GOMAXPROCS(0).
	Threads int
	// PinThreads pins each worker to a CPU for the session's lifetime,
	// as for Options.PinThreads.
	PinThreads bool
	// Telemetry, when non-nil, receives one batch sample per traversal
	// (lanes-per-traversal histogram, shared vs. per-lane edge scans)
	// and one obs.QuerySample per lane.
	Telemetry *obs.Telemetry
	// TelemetryShard selects the latency-histogram shard the per-lane
	// samples record into.
	TelemetryShard int
	// Metrics, when non-nil, receives the batch counters
	// (BatchTraversals, BatchLanes, BatchEdges, BatchLaneEdges).
	Metrics *obs.Metrics
	// EdgeBudget selects the worker partition of the frontier vectors:
	// 0 or positive (the default) splits [0, n) by edge prefix sums so
	// each worker's scan range carries ~equal adjacency mass; a
	// negative value (core.EdgeBudgetOff) restores the legacy uniform
	// vertex split. MS-BFS scans its whole range every level, so the
	// partition is static and the budget's magnitude is irrelevant —
	// only its sign participates, mirroring Options.EdgeBudget.
	EdgeBudget int64
	// Ordering and Reordered select a locality-optimized vertex
	// relabeling exactly as for Options: the traversal runs on the
	// relabeled graph, roots are translated in, and every extraction
	// method (SeenMask, ParentOf, Touched, ExtractParents) translates
	// back out, so callers keep original vertex ids. Reordered overrides
	// Ordering and lets the batch engine share mcbfs.Pool's relabeled
	// CSR.
	Ordering  graph.Ordering
	Reordered *graph.Reordered
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.Width <= 0 {
		o.Width = MaxLanes
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return o
}

// batchWorker is one pool worker's per-traversal scratch, padded so the
// end-of-level deposits of adjacent workers never share a cache line.
type batchWorker struct {
	// activeNext is the OR of lane bits this worker newly set in
	// visitNext during the level; the coordinator folds the slots at
	// the barrier.
	activeNext uint64
	// edges counts adjacency entries this worker scanned (each scanned
	// once for the whole batch).
	edges int64
	// allEdges accumulates degree for frontier vertices whose active
	// mask equalled the full batch mask — the common case once lanes
	// converge — so per-lane edge attribution pays the bit loop only
	// for partial masks.
	allEdges int64
	// laneEdges and laneReached are per-lane attribution: what each
	// lane's single-source search would have scanned and reached.
	laneEdges   [MaxLanes]int64
	laneReached [MaxLanes]int64
	// tbuf batches pushes onto the touched queue.
	tbuf []uint32
	_    [64]byte
}

// BatchSearcher is a reusable MS-BFS session bound to one graph: a
// persistent worker pool plus pooled lane state — seen/visit/visitNext
// lane vectors, the lane-strided parent array, and the touched list —
// sized once and reused, so a warm Search performs zero per-batch heap
// allocations and pays an O(touched) reset rather than an O(n)
// reinitialization, exactly the Searcher contract.
//
// A BatchSearcher serves one batch at a time: Search and Close must not
// be called concurrently. For concurrent batch streams, create one
// BatchSearcher per stream (or use mcbfs.Pool's batching mode).
type BatchSearcher struct {
	workerPool

	g       *graph.Graph
	o       BatchOptions
	n       int
	width   int // lane capacity; stride of parents
	workers int

	// bounds is the edge-prefix-sum worker partition of [0, n] (nil
	// under BatchOptions.EdgeBudget < 0, selecting the uniform split).
	bounds []int

	seen      *bitmap.Lanes
	visit     *bitmap.Lanes
	visitNext *bitmap.Lanes
	parents   []uint32          // n*width, vertex-major: parents[v*width+lane]
	touched   *queue.ChunkQueue // vertices with any seen bit — the O(touched) reset list

	// Ordering translation layer, as in Searcher: the lane vectors and
	// parent stride are indexed by relabeled ids; perm/inv translate at
	// the API boundary. extTouched is the pooled caller-id copy of the
	// touched list, filled lazily by BatchResult.Touched. All nil in
	// natural order.
	perm, inv  []graph.Vertex
	extTouched []uint32

	ws []batchWorker

	bar *barrier

	// Per-batch state, written by Search before the launch gate (the
	// gate's mutex publishes it to the workers).
	lanes      int
	laneMask   uint64
	activeMask uint64 // laneMask minus cancelled lanes; coordinator-owned
	ctx        context.Context
	laneCtx    []context.Context // nil, or per-lane contexts (nil entries = background)
	cancelMask laneCancel        // lanes whose bits stop propagating
	done       atomic.Bool
	depth      int // depth of the frontier being expanded

	laneLevels  [MaxLanes]int
	laneReached [MaxLanes]int64
	laneEdges   [MaxLanes]int64
	laneErr     [MaxLanes]error

	hasTouched bool
	res        BatchResult
}

// laneCancel is the cross-worker cancellation mask: one bit per lane,
// set by whichever party first observes that lane's context expired (a
// worker on whole-batch cancellation, the coordinator on per-lane
// polls). The Or is the same CAS loop as bitmap.Lanes.Or, for the same
// toolchain-portability reason.
type laneCancel struct{ v atomic.Uint64 }

func (c *laneCancel) Load() uint64   { return c.v.Load() }
func (c *laneCancel) Store(m uint64) { c.v.Store(m) }

func (c *laneCancel) Or(m uint64) {
	for {
		old := c.v.Load()
		if old&m == m {
			return
		}
		if c.v.CompareAndSwap(old, old|m) {
			return
		}
	}
}

// NewBatchSearcher builds an MS-BFS session over g. Lane state for the
// full configured width is allocated eagerly, so the first Search pays
// only the traversal itself.
func NewBatchSearcher(g *graph.Graph, opt BatchOptions) (*BatchSearcher, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	o := opt.withDefaults()
	if o.Width > MaxLanes {
		return nil, fmt.Errorf("core: batch width %d exceeds %d lanes", o.Width, MaxLanes)
	}
	n := g.NumVertices()
	rd := o.Reordered
	if rd == nil && o.Ordering != graph.OrderNatural {
		var err error
		if rd, err = g.Reorder(o.Ordering); err != nil {
			return nil, err
		}
	}
	workGraph := g
	var perm, inv []graph.Vertex
	if rd != nil {
		if rd.Graph == nil || rd.Graph.NumVertices() != n || rd.Graph.NumEdges() != g.NumEdges() {
			return nil, errors.New("core: BatchOptions.Reordered does not match the graph")
		}
		if rd.Perm != nil && (len(rd.Perm) != n || len(rd.Inv) != n) {
			return nil, errors.New("core: BatchOptions.Reordered permutation length mismatch")
		}
		workGraph = rd.Graph
		perm, inv = rd.Perm, rd.Inv
	}
	b := &BatchSearcher{
		g:         workGraph,
		perm:      perm,
		inv:       inv,
		o:         o,
		n:         n,
		width:     o.Width,
		workers:   o.Threads,
		seen:      bitmap.NewLanes(n),
		visit:     bitmap.NewLanes(n),
		visitNext: bitmap.NewLanes(n),
		parents:   make([]uint32, n*o.Width),
		touched:   queue.NewChunkQueue(n),
		ws:        make([]batchWorker, o.Threads),
		bar:       newBarrier(o.Threads),
	}
	for w := range b.ws {
		b.ws[w].tbuf = make([]uint32, 0, 64)
	}
	if o.EdgeBudget >= 0 && b.workers > 1 {
		b.bounds = graph.EdgePartition(workGraph.Offsets(), b.workers, 1)
	}
	b.res = BatchResult{
		b:       b,
		Roots:   make([]graph.Vertex, 0, o.Width),
		Reached: make([]int64, 0, o.Width),
		Edges:   make([]int64, 0, o.Width),
		Levels:  make([]int, 0, o.Width),
		Err:     make([]error, 0, o.Width),
	}
	b.start(b.workers, o.PinThreads, b.runWorker)
	return b, nil
}

// Width returns the session's lane capacity.
func (b *BatchSearcher) Width() int { return b.width }

// runWorker is the pool's job dispatcher.
func (b *BatchSearcher) runWorker(w int, kind jobKind) {
	if kind == jobClear {
		b.clearShard(w)
		return
	}
	b.batchWorker(w)
}

// vertexRange is worker w's static share of the frontier vectors:
// edge-balanced boundaries when BatchOptions.EdgeBudget permits (the
// default), the uniform vertex split otherwise. Lane words are one per
// vertex, so no word alignment is needed.
func (b *BatchSearcher) vertexRange(w int) (lo, hi int) {
	if b.bounds != nil {
		return b.bounds[w], b.bounds[w+1]
	}
	return b.n * w / b.workers, b.n * (w + 1) / b.workers
}

// clearShard is worker w's share of the parallel full-reset fallback.
func (b *BatchSearcher) clearShard(w int) {
	lo, hi := b.vertexRange(w)
	b.seen.ResetWords(lo, hi)
	b.visit.ResetWords(lo, hi)
	b.visitNext.ResetWords(lo, hi)
}

// resetState restores the lane vectors after the previous batch in
// O(touched): every vertex with any lane bit set — in seen, and
// therefore in visit/visitNext, which only ever hold subsets of seen —
// is on the touched queue, so walking it and zeroing the three words
// restores pristine state. The parent array needs no reset: entries
// are only ever read under a set seen bit.
func (b *BatchSearcher) resetState() {
	if !b.hasTouched {
		return
	}
	touched := b.touched.Size()
	switch {
	case touched >= b.n/4 && b.workers > 1:
		b.runJob(jobClear)
	case touched >= b.n/4:
		b.clearShard(0)
	default:
		for _, v := range b.touched.Slice() {
			b.seen.Store(int(v), 0)
			b.visit.Store(int(v), 0)
			b.visitNext.Store(int(v), 0)
		}
	}
	b.touched.Reset()
	b.hasTouched = false
}

// Search runs one batch of up to Width BFS traversals, one lane per
// root. The returned BatchResult — including everything reachable
// through its extraction methods — remains valid only until the next
// Search or Close on this BatchSearcher.
func (b *BatchSearcher) Search(roots []graph.Vertex) (*BatchResult, error) {
	return b.SearchLanes(context.Background(), roots, nil)
}

// SearchContext is Search bounded by one context covering the whole
// batch: when ctx is cancelled, every lane unwinds at the next level
// barrier (or worker checkpoint) and SearchContext returns ctx.Err().
func (b *BatchSearcher) SearchContext(ctx context.Context, roots []graph.Vertex) (*BatchResult, error) {
	return b.SearchLanes(ctx, roots, nil)
}

// SearchLanes is the serving-shape entry point: each lane may carry its
// own context (nil entries mean context.Background()). A lane whose
// context expires is cancelled individually — its bits are masked out
// of the propagation at the next level barrier, so it stops consuming
// bandwidth while the other lanes run to completion — and reports the
// context's error in BatchResult.Err; the batch itself still succeeds.
// ctx bounds the whole batch as for SearchContext.
func (b *BatchSearcher) SearchLanes(ctx context.Context, roots []graph.Vertex, laneCtx []context.Context) (*BatchResult, error) {
	if b.closed {
		return nil, errors.New("core: Search on a closed BatchSearcher")
	}
	if len(roots) == 0 {
		return nil, errors.New("core: batch with no roots")
	}
	if len(roots) > b.width {
		return nil, fmt.Errorf("core: %d roots exceed the session's %d lanes", len(roots), b.width)
	}
	if laneCtx != nil && len(laneCtx) != len(roots) {
		return nil, fmt.Errorf("core: %d lane contexts for %d roots", len(laneCtx), len(roots))
	}
	for i, r := range roots {
		if int(r) >= b.n {
			return nil, fmt.Errorf("core: root %d (lane %d) out of range [0,%d)", r, i, b.n)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err // dead on arrival: no state dirtied
	}

	b.resetState()
	b.hasTouched = true
	b.ctx = ctx
	b.laneCtx = laneCtx
	b.lanes = len(roots)
	b.laneMask = laneAll(b.lanes)
	b.cancelMask.Store(0)
	b.done.Store(false)
	b.depth = 0

	// Seed the lanes. A lane whose context is already dead is cancelled
	// before the first scan, so it deterministically reaches only its
	// root.
	var cancelled uint64
	for i, r := range roots {
		// The traversal runs in the session's id space; res.Roots echoes
		// the caller's original ids.
		ir := int(r)
		if b.perm != nil {
			ir = int(b.perm[r])
		}
		bit := uint64(1) << uint(i)
		if old := b.seen.Or(ir, bit); old == 0 {
			b.touched.Push(uint32(ir))
		}
		b.visit.Or(ir, bit)
		b.parents[ir*b.width+i] = uint32(ir)
		b.laneLevels[i] = 1
		b.laneReached[i] = 1
		b.laneEdges[i] = 0
		b.laneErr[i] = nil
		if laneCtx != nil && laneCtx[i] != nil && laneCtx[i].Err() != nil {
			cancelled |= bit
		}
	}
	b.cancelMask.Store(cancelled)
	b.activeMask = b.laneMask &^ cancelled
	if b.activeMask == 0 {
		// Every lane dead on arrival: no traversal, but the seeds are
		// dirty, so finish through the normal path.
		b.done.Store(true)
	}

	start := time.Now()
	if !b.done.Load() {
		b.runJob(jobSearch)
	}
	dur := time.Since(start)

	// Fold per-worker attribution into the lane totals. The fold also
	// zeroes the worker scratch, so it must run even when the batch is
	// about to unwind on ctx — stale slots would leak into the next
	// batch otherwise.
	var edges int64
	for w := range b.ws {
		ws := &b.ws[w]
		edges += ws.edges
		ws.edges = 0
		for l := 0; l < b.lanes; l++ {
			b.laneEdges[l] += ws.laneEdges[l] + ws.allEdges
			b.laneReached[l] += ws.laneReached[l]
			ws.laneEdges[l] = 0
			ws.laneReached[l] = 0
		}
		ws.allEdges = 0
	}

	if ctx.Err() != nil {
		// Whole-batch abort mirrors Searcher.SearchContext: the partial
		// lane state is not a result; reset happens lazily on the next
		// Search.
		return nil, ctx.Err()
	}

	// Resolve per-lane errors for cancelled lanes.
	cm := b.cancelMask.Load()
	for l := 0; l < b.lanes; l++ {
		if cm&(1<<uint(l)) == 0 {
			continue
		}
		err := context.Canceled
		if laneCtx != nil && laneCtx[l] != nil && laneCtx[l].Err() != nil {
			err = laneCtx[l].Err()
		}
		b.laneErr[l] = err
	}

	res := &b.res
	res.Roots = append(res.Roots[:0], roots...)
	res.Lanes = b.lanes
	res.Reached = append(res.Reached[:0], b.laneReached[:b.lanes]...)
	res.Edges = append(res.Edges[:0], b.laneEdges[:b.lanes]...)
	res.Levels = append(res.Levels[:0], b.laneLevels[:b.lanes]...)
	res.Err = append(res.Err[:0], b.laneErr[:b.lanes]...)
	res.EdgesScanned = edges
	res.Duration = dur
	b.record(res, start)
	return res, nil
}

// record hands the finished batch to the session's telemetry sinks.
func (b *BatchSearcher) record(res *BatchResult, start time.Time) {
	var laneEdges int64
	for _, e := range res.Edges {
		laneEdges += e
	}
	if m := b.o.Metrics; m != nil {
		m.BatchTraversals.Add(1)
		m.BatchLanes.Add(int64(res.Lanes))
		m.BatchEdges.Add(res.EdgesScanned)
		m.BatchLaneEdges.Add(laneEdges)
	}
	t := b.o.Telemetry
	if t == nil {
		return
	}
	t.RecordBatch(res.Lanes, res.EdgesScanned, laneEdges)
	for l := 0; l < res.Lanes; l++ {
		outcome := obs.OutcomeOK
		if res.Err[l] != nil {
			outcome = obs.OutcomeCancelled
		}
		t.RecordQuery(b.o.TelemetryShard, obs.QuerySample{
			Root:      uint32(res.Roots[l]),
			Start:     start,
			Duration:  res.Duration,
			Levels:    res.Levels[l],
			Reached:   res.Reached[l],
			Edges:     res.Edges[l],
			Outcome:   outcome,
			Algorithm: BatchAlgorithmName,
		})
	}
}

// batchCancelStride is how many frontier-vector words a worker scans
// between whole-batch context polls; per-lane contexts are polled by
// the coordinator at every level barrier.
const batchCancelStride = 1 << 12

// batchWorker runs one worker's share of the traversal: scan the owned
// range of visit for active lane masks, advance every lane across each
// vertex's adjacency in one pass, and meet the others at the level
// barrier. The owner both reads and clears its visit words, so after a
// full scan the vector is empty and becomes the next level's visitNext
// at the swap — no O(n) zeroing between levels.
func (b *BatchSearcher) batchWorker(w int) {
	ws := &b.ws[w]
	g := b.g
	width := b.width
	parents := b.parents
	lo, hi := b.vertexRange(w)
	var myEdges int64
	tbuf := ws.tbuf[:0]
	for {
		visit, visitNext := b.visit, b.visitNext
		am := b.activeMask
		allMask := am
		var myActive uint64
		for v := lo; v < hi; v++ {
			if v&(batchCancelStride-1) == 0 && b.ctx.Err() != nil {
				b.cancelMask.Or(b.laneMask)
				break
			}
			m := visit.Load(v)
			if m == 0 {
				continue
			}
			visit.Store(v, 0)
			m &= am
			if m == 0 {
				continue
			}
			nbrs := g.Neighbors(graph.Vertex(v))
			deg := int64(len(nbrs))
			myEdges += deg
			// Per-lane edge attribution: the full-mask fast path keeps
			// the converged case at one add; partial masks pay one add
			// per set bit.
			if m == allMask {
				ws.allEdges += deg
			} else {
				for t := m; t != 0; t &= t - 1 {
					ws.laneEdges[bits.TrailingZeros64(t)] += deg
				}
			}
			for _, nb := range nbrs {
				wv := int(nb)
				// Double-checked claim on the shared seen words: the
				// plain probe first; only lanes that look unseen pay
				// the atomic OR, and the OR's returned previous value
				// decides which bits this worker actually won.
				d := m &^ b.seen.Load(wv)
				if d == 0 {
					continue
				}
				old := b.seen.Or(wv, d)
				d &^= old
				if d == 0 {
					continue
				}
				if old == 0 {
					tbuf = append(tbuf, nb)
					if len(tbuf) == cap(tbuf) {
						b.touched.PushBatch(tbuf)
						tbuf = tbuf[:0]
					}
				}
				visitNext.Or(wv, d)
				myActive |= d
				base := wv * width
				for t := d; t != 0; t &= t - 1 {
					l := bits.TrailingZeros64(t)
					parents[base+l] = uint32(v)
					ws.laneReached[l]++
				}
			}
		}
		b.touched.PushBatch(tbuf)
		tbuf = tbuf[:0]
		ws.activeNext = myActive

		if b.bar.wait() {
			b.advanceBatch()
		}
		b.bar.wait()
		if b.done.Load() {
			ws.edges = myEdges
			return
		}
	}
}

// advanceBatch is the level transition, run by the coordinator elected
// at the first barrier (its writes are published to the other workers
// by the second): fold the workers' activity masks, poll cancellation,
// stamp lane levels, and swap the frontier vectors.
func (b *BatchSearcher) advanceBatch() {
	var folded uint64
	for w := range b.ws {
		folded |= b.ws[w].activeNext
		b.ws[w].activeNext = 0
	}
	cm := b.cancelMask.Load()
	if b.ctx.Err() != nil {
		cm = b.laneMask
	} else if b.laneCtx != nil {
		for l := 0; l < b.lanes; l++ {
			bit := uint64(1) << uint(l)
			if cm&bit != 0 {
				continue
			}
			if c := b.laneCtx[l]; c != nil && c.Err() != nil {
				cm |= bit
			}
		}
	}
	b.cancelMask.Store(cm)
	active := folded &^ cm
	if active == 0 {
		b.done.Store(true)
		return
	}
	// Newly discovered vertices sit at depth+1; a lane active in this
	// fold therefore spans depth+2 levels (level 0 is the root).
	b.depth++
	for t := active; t != 0; t &= t - 1 {
		b.laneLevels[bits.TrailingZeros64(t)] = b.depth + 1
	}
	b.visit, b.visitNext = b.visitNext, b.visit
	b.activeMask = b.laneMask &^ cm
}

// laneAll returns the mask of the first lanes lane bits, handling the
// full 64-lane case where 1<<64 would overflow.
func laneAll(lanes int) uint64 {
	if lanes >= MaxLanes {
		return ^uint64(0)
	}
	return (uint64(1) << uint(lanes)) - 1
}

// BatchResult is the outcome of one MS-BFS batch. The per-lane slices
// are indexed by lane (the position of the root in the Search call);
// the extraction methods read the session's pooled lane state, so the
// whole result is valid only until the next Search or Close.
type BatchResult struct {
	// Roots echoes the batch's sources, one per lane.
	Roots []graph.Vertex
	// Lanes is the batch width actually run (len(Roots)).
	Lanes int
	// Reached[l] is the number of vertices in lane l's BFS tree,
	// including the root — identical to what the lane's single-source
	// search would report.
	Reached []int64
	// Edges[l] is the adjacency entries attributable to lane l (the
	// paper's m_a for that source): what a single-source search from
	// Roots[l] would have scanned. The sum over lanes divided by
	// EdgesScanned is the batch's bandwidth amortization factor.
	Edges []int64
	// Levels[l] is lane l's BFS level count (root eccentricity + 1).
	Levels []int
	// Err[l] is nil for a completed lane, or the lane context's error
	// for a lane cancelled mid-traversal.
	Err []error
	// EdgesScanned is the adjacency entries the shared traversal
	// actually loaded — each scanned once for all lanes whose frontier
	// met it.
	EdgesScanned int64
	// Duration is the wall-clock time of the whole batch.
	Duration time.Duration

	b *BatchSearcher
}

// LaneTEPS returns lane l's traversed-edges-per-second rate, charging
// the lane its attributed edges over the shared batch duration divided
// evenly — i.e. the per-query figure a serving system would quote.
func (r *BatchResult) LaneTEPS(l int) float64 {
	if r.Duration <= 0 || r.Lanes == 0 {
		return 0
	}
	perLane := r.Duration.Seconds() / float64(r.Lanes)
	if perLane <= 0 {
		return 0
	}
	return float64(r.Edges[l]) / perLane
}

// SeenMask returns the lane bits that reached v — which of the batch's
// sources have v in their BFS tree. v is a caller-id vertex; with an
// active ordering it is translated through the session's permutation.
func (r *BatchResult) SeenMask(v graph.Vertex) uint64 {
	iv := int(v)
	if r.b.perm != nil {
		iv = int(r.b.perm[v])
	}
	return r.b.seen.Load(iv) & r.b.laneMask
}

// ParentOf returns v's parent in lane l's BFS tree, or NoParent when
// lane l did not reach v. The root's parent is the root itself. Both v
// and the returned parent are caller ids.
func (r *BatchResult) ParentOf(l int, v graph.Vertex) uint32 {
	iv := int(v)
	if r.b.perm != nil {
		iv = int(r.b.perm[v])
	}
	if r.b.seen.Load(iv)&(1<<uint(l)) == 0 {
		return NoParent
	}
	p := r.b.parents[iv*r.b.width+l]
	if r.b.inv != nil {
		p = uint32(r.b.inv[p])
	}
	return p
}

// Touched returns the vertices reached by at least one lane, in
// discovery order, as caller ids. In natural order the slice aliases
// the session's touched queue; with an active ordering it is the
// session's pooled translation buffer (allocated once, then reused).
// Either way, read it before the next Search.
func (r *BatchResult) Touched() []uint32 {
	raw := r.b.touched.Slice()
	if r.b.inv == nil {
		return raw
	}
	if cap(r.b.extTouched) < len(raw) {
		r.b.extTouched = make([]uint32, 0, r.b.n)
	}
	out := r.b.extTouched[:len(raw)]
	for i, v := range raw {
		out[i] = uint32(r.b.inv[v])
	}
	return out
}

// ExtractParents materializes lane l's full parent array (NoParent for
// unreached vertices, everything in caller ids) into dst, allocating
// when dst is too small. The fill is O(n) plus O(touched) for the
// reached entries — the price of detaching a lane's tree from the
// pooled state.
func (r *BatchResult) ExtractParents(l int, dst []uint32) []uint32 {
	n := r.b.n
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	dst = dst[:n]
	fillNoParent(dst)
	bit := uint64(1) << uint(l)
	width := r.b.width
	inv := r.b.inv
	for _, v := range r.b.touched.Slice() {
		if r.b.seen.Load(int(v))&bit == 0 {
			continue
		}
		p := r.b.parents[int(v)*width+l]
		if inv != nil {
			dst[inv[v]] = uint32(inv[p])
		} else {
			dst[v] = p
		}
	}
	return dst
}

// LaneResult renders lane l as a scalar core.Result (Parents, PerLevel
// and Trace nil) — the shape mcbfs.Pool returns for batched queries.
func (r *BatchResult) LaneResult(l int) Result {
	return Result{
		Root:           r.Roots[l],
		Reached:        r.Reached[l],
		EdgesTraversed: r.Edges[l],
		Levels:         r.Levels[l],
		Duration:       r.Duration,
		Threads:        r.b.workers,
	}
}

// BatchQuery is the one-shot convenience wrapper: it creates a session
// sized to the batch, runs it, extracts every lane's parent array, and
// tears the session down. Callers issuing repeated batches should hold
// a BatchSearcher instead and amortize the setup.
func BatchQuery(g *graph.Graph, roots []graph.Vertex, opt BatchOptions) (*BatchTrees, error) {
	if opt.Width <= 0 {
		opt.Width = len(roots)
	}
	b, err := NewBatchSearcher(g, opt)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	res, err := b.Search(roots)
	if err != nil {
		return nil, err
	}
	out := &BatchTrees{
		Roots:        append([]graph.Vertex(nil), res.Roots...),
		Reached:      append([]int64(nil), res.Reached...),
		Edges:        append([]int64(nil), res.Edges...),
		Levels:       append([]int(nil), res.Levels...),
		EdgesScanned: res.EdgesScanned,
		Duration:     res.Duration,
		Parents:      make([][]uint32, res.Lanes),
	}
	for l := 0; l < res.Lanes; l++ {
		out.Parents[l] = res.ExtractParents(l, nil)
	}
	return out, nil
}

// BatchTrees is BatchQuery's detached result: per-lane parent arrays
// that outlive the session.
type BatchTrees struct {
	Roots        []graph.Vertex
	Reached      []int64
	Edges        []int64
	Levels       []int
	Parents      [][]uint32
	EdgesScanned int64
	Duration     time.Duration
}
