package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mcbfs/internal/bitmap"
	"mcbfs/internal/graph"
	"mcbfs/internal/obs"
	"mcbfs/internal/queue"
	"mcbfs/internal/topology"
)

// Query selects per-search overrides on a Searcher. The zero value
// reruns the session's configuration.
type Query struct {
	// Algorithm overrides the session's tier for this search; AlgAuto
	// (the zero value) keeps the session default.
	Algorithm Algorithm
	// MaxLevels overrides Options.MaxLevels for this search: 0 keeps
	// the session setting, a negative value forces unbounded.
	MaxLevels int
}

// searchWorker is one pool worker's per-search state, the receiver of
// the level driver's edge-range kernels. The slice fields are sized
// once (NewSearcher / ensureTier) and reused every search, so a warm
// search allocates none of them. The trailing pad keeps the hot
// counters of adjacent workers off a shared cache line.
type searchWorker struct {
	s  *Searcher
	wr *obs.WorkerRec
	// q is the queue the worker pops its window from and flushes its
	// claims into: the shared queue, or its socket's in the multi-socket
	// tier.
	q      *queue.ChunkQueue
	socket int
	// stats holds the current level's counts; checkpoints is the
	// cancellation-probe counter (see aborted).
	stats       LevelStats
	checkpoints int
	// local is the claimed-vertex batch (cap Options.LocalBatch),
	// flushed into the next-level window of q when full.
	local []uint32
	// owned, remote and recvBuf are the multi-socket tier's owned-target
	// block, per-destination send batches and channel receive buffer
	// (nil until that tier is first used).
	owned   []uint32
	remote  [][]queue.Tuple
	recvBuf []queue.Tuple
	// edges and reached are the worker's run totals, read by the caller
	// after the finish gate.
	edges, reached int64
	_              [64]byte
}

// Searcher is a reusable BFS session bound to one graph: a persistent
// worker pool (goroutines parked on a gate between queries, pinned once
// when Options.PinThreads is set) plus pooled per-search state —
// parents, visited/frontier bitmaps, chunk queues, inter-socket
// channels and remote-batch buffers — sized to the graph and reused
// across calls. A warm Search performs zero per-search heap allocations
// of that state; the per-search cost is an O(touched) reset of what the
// previous search dirtied, not an O(n) reinitialization.
//
// The reset stays O(touched) because each tier runs over a *monotone*
// queue: the queue is never reset within a search, levels are windows
// [prevLimit, limit) advanced by the level coordinator, and when the
// search finishes the queue's contents are exactly the set of reached
// vertices — a free "touched list" that the next Search walks to clear
// only the parent entries and visited-bitmap words the last search
// wrote (falling back to a parallel full clear when touched ≳ n/4).
//
// A Searcher serves one search at a time: Search, BFS and Close must
// not be called concurrently. For concurrent query streams, create one
// Searcher per stream — Searchers over the same graph are independent.
type Searcher struct {
	workerPool

	g       *graph.Graph
	gt      *graph.Graph // transpose; direction-optimizing tier only (lazy)
	o       Options      // session options, resolved by withDefaults
	n       int
	workers int
	sockets int
	part    topology.Partition // multi-socket tier only

	parents  []uint32
	visited  *bitmap.Atomic
	frontier *bitmap.Atomic // direction-optimizing tier only (lazy)

	// Degree-aware scheduling (Options.EdgeBudget): edgeBudget is the
	// session's effective per-chunk adjacency allowance (0 = off), hubs
	// the shared over-budget-vertex split board, and buPart the
	// edge-prefix-sum bottom-up partition of the transpose (lazy with
	// the direction-optimizing tier, 64-aligned boundaries).
	edgeBudget int64
	hubs       *hubBoard
	buPart     []int

	// Ordering translation layer (Options.Ordering / Options.Reordered):
	// the session searches a relabeled copy of the caller's graph, so s.g
	// is the relabeled CSR, perm maps caller ids into it, inv maps back,
	// and extParents is the pooled caller-id parent array that results
	// expose. A query translates its root in (one array read) and its
	// parent tree out (one O(touched) walk of the monotone queues); the
	// reset clears extParents alongside parents, so warm queries stay
	// allocation-free. All nil when the session runs in natural order.
	perm, inv  []graph.Vertex
	extParents []uint32

	// q is the monotone queue of the shared-queue tiers (sequential,
	// simple, single-socket, direction-optimizing); qs the per-socket
	// queues of the multi-socket tier. At most one of them holds data
	// after a search — the previous search's touched list.
	q         *queue.ChunkQueue
	qs        []*queue.ChunkQueue
	channels  []*queue.Channel
	chanStats bool
	prevChan  []queue.ChannelStats

	ws    []searchWorker
	slots []statSlot // statsCollector backing, reused across searches

	// bar synchronizes the workers inside a search.
	bar *barrier

	// Per-search job description: written by Search before the launch
	// gate, read by workers after it. scan and own are the tier's
	// edge-range kernels (see topDownKernels).
	alg       Algorithm
	maxLevels int
	coll      *obs.Collector
	scan, own edgeKernel

	// collCache is the pooled obs collector, reused across searches via
	// Collector.Reset whenever the tier's worker count is unchanged, so
	// a warm observed search allocates no collector state. runTracer is
	// the session's effective tracer — Options.Tracer plus the
	// telemetry level capture when Options.Telemetry is set — and
	// levelRecs is the capture's pooled destination: the current
	// search's per-level breakdowns, handed to the flight recorder.
	collCache *obs.Collector
	runTracer obs.Tracer
	levelRecs []obs.LevelBreakdown

	// ctx is the current search's context; cancel is the cross-worker
	// abort flag, set by whichever party first observes ctx.Err() != nil
	// (a worker at a chunk-pop checkpoint, or the level coordinator at
	// the barrier). Workers that see it stop expanding, flush what they
	// claimed, and proceed through the normal level protocol, so the
	// monotone queues still hold exactly the touched set when the search
	// unwinds.
	ctx    context.Context
	cancel atomic.Bool

	// Level-coordination state: written by the coordinator elected at
	// the first level barrier, read by workers after the second (done
	// and bottomUp are atomic because workers also poll them at level
	// boundaries).
	done       atomic.Bool
	bottomUp   atomic.Bool
	limit      int64
	prevLimit  int64
	sockLimit  []int64
	levels     int
	levelStart time.Time

	stats    statsCollector
	perLevel []LevelStats

	hasTouched bool
	res        Result
}

// NewSearcher builds a search session over g. The algorithm tier, its
// worker count and all tuning knobs come from opt exactly as they do
// for BFS; state for the default tier is allocated eagerly so the first
// Search pays only the search itself, and state for other tiers
// requested via Query.Algorithm is allocated on first use.
func NewSearcher(g *graph.Graph, opt Options) (*Searcher, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	o := opt.withDefaults()
	if err := o.Machine.Validate(); err != nil {
		return nil, err
	}
	switch o.Algorithm {
	case AlgSequential, AlgParallelSimple, AlgSingleSocket, AlgMultiSocket, AlgDirectionOptimizing:
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", opt.Algorithm)
	}
	if o.HybridAlpha < 0 || o.HybridBeta < 0 {
		return nil, fmt.Errorf("core: HybridAlpha/HybridBeta must be positive (got %d/%d)",
			opt.HybridAlpha, opt.HybridBeta)
	}
	n := g.NumVertices()
	rd := o.Reordered
	if rd == nil && o.Ordering != graph.OrderNatural {
		var err error
		if rd, err = g.Reorder(o.Ordering); err != nil {
			return nil, err
		}
		o.Reordered = rd // sessions rebuilt from these options reuse it
	}
	workGraph := g
	var perm, inv []graph.Vertex
	if rd != nil {
		if rd.Graph == nil || rd.Graph.NumVertices() != n || rd.Graph.NumEdges() != g.NumEdges() {
			return nil, errors.New("core: Options.Reordered does not match the graph")
		}
		if rd.Perm != nil && (len(rd.Perm) != n || len(rd.Inv) != n) {
			return nil, errors.New("core: Options.Reordered permutation length mismatch")
		}
		workGraph = rd.Graph
		perm, inv = rd.Perm, rd.Inv
	}
	s := &Searcher{
		g:       workGraph,
		perm:    perm,
		inv:     inv,
		o:       o,
		n:       n,
		workers: o.Threads,
		sockets: o.Machine.SocketsForThreads(o.Threads),
		parents: newParents(n),
		visited: bitmap.NewAtomic(n),
		ws:      make([]searchWorker, o.Threads),
		slots:   make([]statSlot, o.Threads),
		bar:     newBarrier(o.Threads),
	}
	if perm != nil {
		s.extParents = newParents(n)
	}
	s.edgeBudget = resolveEdgeBudget(o, workGraph)
	if s.edgeBudget > 0 && s.workers > 1 {
		// With one worker there is nobody to share a split hub with, so
		// the board is skipped and over-budget vertices expand inline.
		s.hubs = newHubBoard(workGraph, s.edgeBudget)
	}
	for w := range s.ws {
		s.ws[w].s = s
		s.ws[w].local = make([]uint32, 0, o.LocalBatch)
	}
	s.runTracer = o.Tracer
	if o.Telemetry != nil {
		lc := levelCapture{s}
		if o.Tracer != nil {
			s.runTracer = obs.MultiTracer(o.Tracer, lc)
		} else {
			s.runTracer = lc
		}
		s.levelRecs = make([]obs.LevelBreakdown, 0, 64)
	}
	if err := s.ensureTier(o.Algorithm); err != nil {
		return nil, err
	}
	s.start(s.workers, o.PinThreads, s.runWorker)
	return s, nil
}

// ensureTier allocates the tier-specific pooled state the first time
// this session runs the given algorithm.
func (s *Searcher) ensureTier(alg Algorithm) error {
	switch alg {
	case AlgSequential, AlgParallelSimple, AlgSingleSocket, AlgDirectionOptimizing:
		if s.q == nil {
			s.q = queue.NewChunkQueue(s.n)
		}
		if alg == AlgDirectionOptimizing {
			if s.frontier == nil {
				s.frontier = bitmap.NewAtomic(s.n)
			}
			if s.gt == nil {
				gt := s.o.Transpose
				if gt == nil {
					// s.g is already the relabeled graph when the session
					// reorders, so the lazily computed transpose is too.
					gt = s.g.Transpose()
				} else if gt.NumVertices() != s.n || gt.NumEdges() != s.g.NumEdges() {
					return errors.New("core: Options.Transpose does not match the graph")
				} else if s.perm != nil {
					// A caller-supplied transpose is in original id space;
					// carry it into the session's relabeled space.
					rgt, err := gt.Relabel(s.perm)
					if err != nil {
						return err
					}
					gt = rgt
				}
				s.gt = gt
			}
			if s.edgeBudget > 0 && s.buPart == nil {
				// Edge-prefix-sum partition of the bottom-up sweep: each
				// worker scans ~equal in-edge mass of the transpose.
				// 64-aligned boundaries keep a worker's plain bitmap
				// writes word-exclusive, like the legacy uniform split.
				s.buPart = graph.EdgePartition(s.gt.Offsets(), s.workers, 64)
			}
		}
	case AlgMultiSocket:
		if s.qs == nil {
			part, err := topology.NewPartition(s.n, s.sockets)
			if err != nil {
				return err
			}
			s.part = part
			s.qs = make([]*queue.ChunkQueue, s.sockets)
			s.channels = make([]*queue.Channel, s.sockets)
			s.prevChan = make([]queue.ChannelStats, s.sockets)
			s.sockLimit = make([]int64, s.sockets)
			for sck := 0; sck < s.sockets; sck++ {
				lo, hi := part.Range(sck)
				c := hi - lo
				if c < 1 {
					c = 1
				}
				s.qs[sck] = queue.NewChunkQueue(c)
				s.channels[sck] = queue.NewChannel()
			}
			for w := range s.ws {
				s.ws[w].remote = make([][]queue.Tuple, s.sockets)
				for sck := range s.ws[w].remote {
					s.ws[w].remote[sck] = make([]queue.Tuple, 0, s.o.BatchSize)
				}
				s.ws[w].recvBuf = make([]queue.Tuple, s.o.BatchSize)
				s.ws[w].owned = make([]uint32, 0, ownedBlock)
			}
		}
		// Channel counters cannot be disabled once on, so they are
		// enabled lazily and only when the session traces.
		if s.o.Trace && !s.chanStats {
			for _, c := range s.channels {
				c.EnableStats()
			}
			s.chanStats = true
		}
	default:
		return fmt.Errorf("core: unknown algorithm %v", alg)
	}
	return nil
}

// runWorker is the pool's job dispatcher. The sequential tier never
// reaches the pool: it runs inline on the caller's goroutine.
func (s *Searcher) runWorker(w int, kind jobKind) {
	if kind == jobClear {
		s.clearShard(w)
		return
	}
	s.levelWorker(w)
}

// clearShard is worker w's share of the parallel full-reset fallback:
// restore a word-aligned shard of the parent array and visited bitmap.
// Word alignment keeps two workers' bitmap stores off the same word.
func (s *Searcher) clearShard(w int) {
	words := (s.n + 63) / 64
	wlo := words * w / s.workers
	whi := words * (w + 1) / s.workers
	lo := wlo * 64
	hi := whi * 64
	if hi > s.n {
		hi = s.n
	}
	p := s.parents[lo:hi]
	for i := range p {
		p[i] = NoParent
	}
	if s.extParents != nil {
		// The full clear restores all of [0, n) across workers, so the
		// same contiguous shard of the caller-id array covers it too.
		e := s.extParents[lo:hi]
		for i := range e {
			e[i] = NoParent
		}
	}
	s.visited.ResetWords(wlo, whi)
}

// resetState restores parents, visited and the queues after the
// previous search, in O(touched) rather than O(n): the monotone queues
// hold exactly the vertices the search reached, and every set visited
// bit belongs to a reached vertex, so walking the queue contents and
// zeroing each vertex's parent entry and containing bitmap word
// restores the pristine state. When the previous search touched a large
// fraction of the graph, a parallel full clear beats the walk's random
// stores.
func (s *Searcher) resetState() {
	if !s.hasTouched {
		return
	}
	touched := 0
	if s.q != nil {
		touched += s.q.Size()
	}
	for _, q := range s.qs {
		touched += q.Size()
	}
	switch {
	case touched >= s.n/4 && s.workers > 1:
		s.runJob(jobClear)
	case touched >= s.n/4:
		s.clearShard(0)
	default:
		// With an active ordering, a cell of the caller-id parent array
		// is dirty only if the last *translated* search wrote it — and
		// that search's touched list is still the queue contents being
		// walked here (a cancelled search in between translates nothing
		// and its reset walk just re-clears clean cells), so clearing
		// extParents[inv[v]] alongside parents[v] restores both arrays.
		if s.q != nil {
			for _, v := range s.q.Slice() {
				s.parents[v] = NoParent
				s.visited.ClearWordOf(int(v))
				if s.extParents != nil {
					s.extParents[s.inv[v]] = NoParent
				}
			}
		}
		for _, q := range s.qs {
			for _, v := range q.Slice() {
				s.parents[v] = NoParent
				s.visited.ClearWordOf(int(v))
				if s.extParents != nil {
					s.extParents[s.inv[v]] = NoParent
				}
			}
		}
	}
	if s.q != nil {
		s.q.Reset()
	}
	for _, q := range s.qs {
		q.Reset()
	}
	if s.hubs != nil {
		// A cancelled search can unwind with half-claimed hub tasks
		// still posted; clear them so the next search starts clean.
		s.hubs.reset()
	}
	s.hasTouched = false
}

// BFS runs one search from root with the session's configuration — the
// repeated-query fast path.
func (s *Searcher) BFS(root graph.Vertex) (*Result, error) {
	return s.Search(root, Query{})
}

// cancelCheckMask throttles the direct context poll: workers re-read
// ctx.Err() once every cancelCheckMask+1 checkpoints (a checkpoint is
// one claimed chunk, or one frontier vertex in the sequential tier);
// between polls the only cost is one atomic load of the shared flag.
// With the default ChunkSize that bounds the work between context
// observations to a few thousand vertices per worker.
const cancelCheckMask = 63

// aborted is the per-checkpoint cancellation probe, called from the hot
// loops of every tier with a worker-local checkpoint counter. It is
// two-level: the cross-worker flag on every call (so one worker's
// observation propagates at the next checkpoint), the context itself
// only every cancelCheckMask+1 calls.
func (s *Searcher) aborted(n *int) bool {
	if s.cancel.Load() {
		return true
	}
	*n++
	if *n&cancelCheckMask != 0 {
		return false
	}
	if s.ctx.Err() != nil {
		s.cancel.Store(true)
		return true
	}
	return false
}

// checkCancelAtBarrier is the level coordinator's probe, run at every
// level transition: levels too small to trip a worker checkpoint still
// observe cancellation within one level. It returns true — after
// setting both flags — when the search must unwind.
func (s *Searcher) checkCancelAtBarrier() bool {
	if s.cancel.Load() || s.ctx.Err() != nil {
		s.cancel.Store(true)
		s.done.Store(true)
		return true
	}
	return false
}

// Search runs one BFS from root, reusing the session's pooled state.
// The returned Result — including Parents, PerLevel and Trace — remains
// valid only until the next Search or Close on this Searcher; copy what
// must outlive it. Search must not be called concurrently with itself
// or Close.
func (s *Searcher) Search(root graph.Vertex, q Query) (*Result, error) {
	return s.SearchContext(context.Background(), root, q)
}

// SearchContext is Search with cancellation: when ctx is cancelled or
// its deadline passes, the search unwinds at the next cancellation
// point (a level barrier, or a chunk-pop checkpoint inside a level) and
// returns ctx.Err(). The abort leaves the session consistent — every
// vertex the aborted search claimed is on its touched list, so the next
// Search on this Searcher pays the usual O(touched) reset and returns
// exactly what a fresh session would. An uncancellable background
// context adds no per-search allocation or synchronization beyond
// Search.
func (s *Searcher) SearchContext(ctx context.Context, root graph.Vertex, q Query) (*Result, error) {
	if s.closed {
		return nil, errors.New("core: Search on a closed Searcher")
	}
	if int(root) >= s.n {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, s.n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err // dead on arrival: no state dirtied
	}
	alg := q.Algorithm
	if alg == AlgAuto {
		alg = s.o.Algorithm
	}
	if err := s.ensureTier(alg); err != nil {
		return nil, err
	}
	maxLevels := s.o.MaxLevels
	if q.MaxLevels > 0 {
		maxLevels = q.MaxLevels
	} else if q.MaxLevels < 0 {
		maxLevels = 0
	}

	s.resetState()
	// The session is dirty from here on. Recording that before any
	// parent/bitmap write (rather than after the search completes, as
	// an earlier version did) means an abort on any path below still
	// triggers a full reset of the partial state on the next query —
	// including the root's seeded parent entry, which is why the queue
	// push below precedes the s.parents[root] write.
	s.hasTouched = true
	s.ctx = ctx
	s.cancel.Store(false)

	tierWorkers := s.workers
	tierSockets := 1
	if alg == AlgSequential {
		tierWorkers = 1
	}
	if alg == AlgMultiSocket {
		tierSockets = s.sockets
	}
	s.coll = s.obsCollector(tierWorkers, tierSockets, alg)
	s.levelRecs = s.levelRecs[:0]
	s.alg = alg
	s.maxLevels = maxLevels
	s.levels = 0
	s.done.Store(false)
	s.bottomUp.Store(false)
	if s.o.Instrument {
		s.perLevel = s.perLevel[:0]
	} else {
		s.perLevel = nil
	}

	// The search itself runs in the session's id space: with an active
	// ordering the root is translated in here and the parent tree
	// translated back out after the search; without one iroot == root.
	iroot := root
	if s.perm != nil {
		iroot = s.perm[root]
	}

	start := time.Now()
	s.levelStart = start
	var edges, reached int64
	if alg == AlgSequential {
		// The serial baseline runs inline on the caller's goroutine.
		s.q.Push(uint32(iroot))
		s.parents[iroot] = uint32(iroot)
		edges, reached = s.sequentialSearch()
	} else {
		s.stats.arm(s.o.Instrument, s.coll, s.slots)
		s.scan, s.own = topDownKernels(alg, s.o.DisableDoubleCheck)
		if alg == AlgMultiSocket {
			s.qs[s.part.DetermineSocket(uint32(iroot))].Push(uint32(iroot))
			for i := range s.sockLimit {
				s.sockLimit[i] = int64(s.qs[i].Size())
			}
			if s.chanStats {
				// Channel counters are cumulative across searches;
				// re-baseline the per-level delta tracking.
				for i, c := range s.channels {
					s.prevChan[i] = c.Stats()
					c.ResetHighWater()
				}
			}
		} else {
			s.q.Push(uint32(iroot))
			s.prevLimit = 0
			s.limit = 1
		}
		s.parents[iroot] = uint32(iroot)
		switch alg {
		case AlgSingleSocket, AlgMultiSocket, AlgDirectionOptimizing:
			s.visited.Set(int(iroot))
		}
		s.runJob(jobSearch)
		for w := range s.ws {
			edges += s.ws[w].edges
			reached += s.ws[w].reached
		}
		reached++ // workers count discoveries; the root is seeded
	}
	dur := time.Since(start)
	if s.cancel.Load() {
		// The partial tree is not a BFS tree of anything; expose only
		// the error. State reset happens lazily on the next query.
		s.recordQuery(root, start, dur, reached, edges, obs.OutcomeCancelled, alg)
		return nil, ctx.Err()
	}

	resultParents := s.parents
	if s.perm != nil {
		s.translateParents()
		resultParents = s.extParents
	}
	s.res = Result{
		Parents:        resultParents,
		Root:           root,
		Reached:        reached,
		EdgesTraversed: edges,
		Levels:         s.levels,
		Duration:       dur,
		Algorithm:      alg,
		Threads:        tierWorkers,
		PerLevel:       s.perLevel,
		Trace:          s.coll.Finish(),
	}
	s.hasTouched = true
	s.recordQuery(root, start, dur, reached, edges, obs.OutcomeOK, alg)
	return &s.res, nil
}

// translateParents projects the parent tree of the search that just
// finished from the session's relabeled id space back into caller ids,
// walking the monotone queues — exactly the reached set — so the cost
// is O(touched), not O(n). The entries written here are cleared by the
// next resetState, which walks the same queues.
func (s *Searcher) translateParents() {
	inv, parents, ext := s.inv, s.parents, s.extParents
	if s.q != nil {
		for _, v := range s.q.Slice() {
			ext[inv[v]] = uint32(inv[parents[v]])
		}
	}
	for _, q := range s.qs {
		for _, v := range q.Slice() {
			ext[inv[v]] = uint32(inv[parents[v]])
		}
	}
}

// recordQuery hands one finished (or cancelled) search to the session's
// telemetry hub. The per-level slice is borrowed: the hub copies it only
// when the query is slow enough to capture.
func (s *Searcher) recordQuery(root graph.Vertex, start time.Time, dur time.Duration, reached, edges int64, outcome obs.Outcome, alg Algorithm) {
	if s.o.Telemetry == nil {
		return
	}
	s.o.Telemetry.RecordQuery(s.o.TelemetryShard, obs.QuerySample{
		Root:      uint32(root),
		Start:     start,
		Duration:  dur,
		Levels:    s.levels,
		Reached:   reached,
		Edges:     edges,
		Outcome:   outcome,
		Algorithm: alg.String(),
		PerLevel:  s.levelRecs,
	})
}

// obsCollector readies the observability collector for one search: the
// pooled collector is Reset in place when the tier's worker count is
// unchanged, rebuilt otherwise, and nil when nothing observes the run —
// the nil pointer is what keeps the hot path at a handful of
// predictable nil-checks per level.
func (s *Searcher) obsCollector(workers, sockets int, alg Algorithm) *obs.Collector {
	if !s.o.Trace && s.runTracer == nil {
		return nil
	}
	cfg := obs.Config{
		Workers:   workers,
		Sockets:   sockets,
		Algorithm: alg.String(),
		Trace:     s.o.Trace,
		Tracer:    s.runTracer,
	}
	if s.collCache.Reset(cfg) {
		return s.collCache
	}
	s.collCache = obs.NewCollector(cfg)
	return s.collCache
}

// levelCapture is the telemetry hook: a Tracer that accumulates each
// level's folded breakdown into the session's pooled levelRecs slice,
// from which recordQuery hands the per-level view to the flight
// recorder. Callbacks fire only from the elected level coordinator (one
// goroutine at a time, sequenced by the level barrier), so plain
// appends are safe.
type levelCapture struct{ s *Searcher }

func (c levelCapture) OnLevelStart(level int) {}

func (c levelCapture) OnLevelEnd(level int, b obs.LevelBreakdown) {
	c.s.levelRecs = append(c.s.levelRecs, b)
}

func (c levelCapture) OnRemoteBatch(level, worker, toSocket, tuples int) {}

func (c levelCapture) OnBarrierWait(level, worker int, wait time.Duration) {}
