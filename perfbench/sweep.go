package main

import (
	"fmt"
	"runtime"
	"time"

	"mcbfs"
)

// Every workload ends with a tier sweep (one warm Searcher per tier,
// each search from a fresh root) and a 64-lane BatchSearcher
// replay over its graph: the core and msbfs layers measured directly.
// traverse runs them on a graph far beyond the last-level cache; the
// serve-* workloads on their in-cache serving graph.

// tierOptions is the session configuration of one tier: two workers
// (sequential uses one) and, for multi-socket, a logical 2×1 machine.
func tierOptions(tier string, transpose *mcbfs.Graph, rd *mcbfs.Reordered, traced bool) mcbfs.Options {
	opt := mcbfs.Options{Threads: 2, Transpose: transpose, Reordered: rd,
		Instrument: traced, Trace: traced}
	switch tier {
	case "sequential":
		opt.Algorithm, opt.Threads = mcbfs.AlgSequential, 1
	case "parallel-simple":
		opt.Algorithm = mcbfs.AlgParallelSimple
	case "single-socket":
		opt.Algorithm = mcbfs.AlgSingleSocket
	case "multi-socket":
		opt.Algorithm, opt.Machine = mcbfs.AlgMultiSocket, mcbfs.GenericMachine(2, 1, 1)
	case "direction-optimizing":
		opt.Algorithm = mcbfs.AlgDirectionOptimizing
	}
	return opt
}

// sessions holds one warm Searcher per tier plus the batch engine.
type sessions struct {
	tiers []*mcbfs.Searcher
	batch *mcbfs.BatchSearcher
	newMs []float64 // NewSearcher time per tier
}

// openSessions builds the per-tier Searchers and a 64-lane
// BatchSearcher over g (batch omitted when withBatch is false).
func openSessions(g, transpose *mcbfs.Graph, rd *mcbfs.Reordered, traced, withBatch bool,
	tr *tracer, parent int32) (*sessions, error) {
	s := &sessions{}
	for _, t := range tierNames {
		i := tr.span(0, parent, "core.NewSearcher")
		t0 := time.Now()
		se, err := mcbfs.NewSearcher(g, tierOptions(t, transpose, rd, traced))
		s.newMs = append(s.newMs, ms(time.Since(t0)))
		tr.end(i)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("%s searcher: %w", t, err)
		}
		s.tiers = append(s.tiers, se)
	}
	if withBatch {
		i := tr.span(0, parent, "msbfs.NewBatchSearcher")
		b, err := mcbfs.NewBatchSearcher(g, mcbfs.BatchOptions{Width: mcbfs.MaxBatchLanes, Threads: 2, Reordered: rd})
		tr.end(i)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("batch searcher: %w", err)
		}
		s.batch = b
	}
	return s, nil
}

func (s *sessions) close() {
	for _, t := range s.tiers {
		t.Close()
	}
	if s.batch != nil {
		s.batch.Close()
	}
}

// checker compares answers with the reference BFS, off the clock.
type checker struct {
	ref    *refGraph
	search *refSearch
	stamps [][]uint32 // one per checking goroutine
}

func newChecker(ref *refGraph) *checker {
	c := &checker{ref: ref, search: newRefSearch(ref, runtime.GOMAXPROCS(0))}
	for range runtime.GOMAXPROCS(0) {
		c.stamps = append(c.stamps, make([]uint32, ref.n))
	}
	return c
}

// rootBlock is up to 64 roots with their reference answers and depth
// arrays.
type rootBlock struct {
	roots   []mcbfs.Vertex
	answers []refAnswer
	depth   *depthTable
}

// block takes k ≤ 64 fresh roots from src and runs the reference on
// them, overwriting depth.
func (c *checker) block(src *rootSource, k int, depth *depthTable) (*rootBlock, error) {
	roots, err := src.take(k)
	if err != nil {
		return nil, err
	}
	return &rootBlock{roots: roots, answers: c.search.run(roots, depth), depth: depth}, nil
}

// checkSearch compares one single-source answer with the reference:
// reached count, level count and the full tree.
func (c *checker) checkSearch(b *rootBlock, i int, res *mcbfs.Result, o *outcome) {
	a := b.answers[i]
	var err error
	if res.Reached != a.reached || res.Levels != a.levels {
		err = fmt.Errorf("root %d: reached %d in %d levels, reference %d in %d",
			b.roots[i], res.Reached, res.Levels, a.reached, a.levels)
	} else {
		err = checkTrees(c.ref, b.depth, i, b.roots[i:i+1], c.stamps,
			func(_, v int) uint32 { return res.Parents[v] })
	}
	if err != nil {
		o.wrongf("%s search: %v", res.Algorithm, err)
	}
	o.checked++
}

// checkBatch checks every lane of one batch against the reference:
// counts first, then, when they all agree, the full trees.
func (c *checker) checkBatch(b *rootBlock, res *mcbfs.BatchResult, o *outcome) {
	countsOK := true
	for l, a := range b.answers {
		if res.Err[l] != nil || res.Reached[l] != a.reached || res.Levels[l] != a.levels {
			o.wrongf("batch lane %d (root %d): reached %d in %d levels (err %v), reference %d in %d",
				l, b.roots[l], res.Reached[l], res.Levels[l], res.Err[l], a.reached, a.levels)
			countsOK = false
		}
	}
	if countsOK {
		if err := checkTrees(c.ref, b.depth, 0, b.roots, c.stamps,
			func(l, v int) uint32 { return res.ParentOf(l, mcbfs.Vertex(v)) }); err != nil {
			o.wrongf("batch: %v", err)
		}
	}
	o.checked += int64(len(b.roots))
}

// tierStats accumulates one tier's searches over a run.
type tierStats struct {
	times, allocs     []float64 // per search: call ms, heap allocations
	refEdges, scanned int64
	plain, traced     time.Duration // paired search time, traced runs only
	lc                levelCounters
	searches          int
}

// sweeper interleaves the tier sweep and the batch replay in rounds, so
// that a slow stretch of the host lands on every tier alike rather than
// on whichever tier ran during it; see round. Every search, warm-ups
// included, takes a fresh root from src, so no root is searched twice
// in a run. The one exception is a traced run's pair: each search is
// made twice, back to back, from the same root: once on the plain
// session, which is timed, and once on the traced one, which has
// Options.Instrument and Options.Trace on and supplies the per-level
// counters; the time gap between the two is the tracing overhead.
//
// Roots come in blocks of 64 whose reference answers and depth arrays
// are computed, off the clock, when the block is first needed. All
// blocks share one depth table, so a batch's block ends the single
// searches' block and their next root starts a new one.
type sweeper struct {
	plain, traced *sessions
	ch            *checker
	src           *rootSource
	depth         *depthTable
	cur           *rootBlock // the single searches' block; nil after a batch
	used          int        // roots of cur handed out
	o             *outcome
	tr            *tracer
	err           error // the run ran out of roots; no more searches
	tiers         []tierStats
	batchMs       []float64
	laneRef       int64 // Σ reference edges of the timed batches' lanes
	laneEdges     int64 // Σ lane edges the engine attributed
	scannedEdges  int64 // Σ edges the shared traversals scanned
}

// newSweeper warms every session on a root of its own, which no round
// measures; the batch engine's warm-up is one full batch. Warm-up
// answers are checked like every other.
func newSweeper(plain, traced *sessions, ch *checker, src *rootSource, o *outcome, tr *tracer) *sweeper {
	s := &sweeper{plain: plain, traced: traced, ch: ch, src: src, o: o, tr: tr,
		depth: newDepthTable(ch.ref.n, mcbfs.MaxBatchLanes), tiers: make([]tierStats, len(tierNames))}
	// The batch goes first, so that the single searches' first block
	// lasts into the rounds.
	if plain.batch != nil {
		s.searchBatch(-1)
	}
	for _, set := range []*sessions{plain, traced} {
		if set == nil {
			continue
		}
		for ti, se := range set.tiers {
			if b, i, ok := s.nextRoot(); ok {
				s.search(se, b, i, "core.Search."+tierNames[ti]+".warm-up")
			}
		}
	}
	return s
}

// nextRoot hands out a fresh root for one single search: the next of
// the current block, or the first of a new one. ok is false once the
// run's roots are used up; s.err then says so.
func (s *sweeper) nextRoot() (b *rootBlock, i int, ok bool) {
	if s.err != nil {
		return nil, 0, false
	}
	if s.cur == nil || s.used == len(s.cur.roots) {
		if s.cur, s.err = s.ch.block(s.src, mcbfs.MaxBatchLanes, s.depth); s.err != nil {
			return nil, 0, false
		}
		s.used = 0
	}
	s.used++
	return s.cur, s.used - 1, true
}

// round gives every tier a slice of search time: each searches fresh
// roots until it has spent slices[tier] (at least one search), so fast
// tiers take more samples than slow ones. It returns the time the plain
// searches took.
func (s *sweeper) round(slices []time.Duration) time.Duration {
	var spent time.Duration
	for ti, tier := range tierNames {
		st := &s.tiers[ti]
		var used time.Duration
		for first := true; first || used < slices[ti]; first = false {
			b, i, ok := s.nextRoot()
			if !ok {
				return spent + used
			}
			used += s.searchTier(ti, tier, st, b, i)
		}
		spent += used
	}
	return spent
}

// uniformSlices gives every tier a slice of d.
func uniformSlices(d time.Duration) []time.Duration {
	s := make([]time.Duration, len(tierNames))
	for i := range s {
		s[i] = d
	}
	return s
}

// searchTier searches root i of b on one tier (twice in a traced run)
// and records it.
func (s *sweeper) searchTier(ti int, tier string, st *tierStats, b *rootBlock, i int) time.Duration {
	// In a traced run the pair's order alternates, so that neither
	// search always finds the other's data in cache.
	var dt time.Duration
	var rt *mcbfs.Result
	tracedFirst := s.traced != nil && st.searches%2 == 0
	st.searches++
	if tracedFirst {
		dt, rt = s.search(s.traced.tiers[ti], b, i, "core.Search."+tier+".traced")
	}
	d, r := s.search(s.plain.tiers[ti], b, i, "core.Search."+tier)
	if r == nil {
		return d
	}
	st.times = append(st.times, ms(d))
	st.refEdges += b.answers[i].edges
	st.scanned += r.EdgesTraversed
	if s.traced != nil && !tracedFirst {
		dt, rt = s.search(s.traced.tiers[ti], b, i, "core.Search."+tier+".traced")
	}
	if rt != nil {
		st.plain += d
		st.traced += dt
		st.lc.add(rt.Trace)
	}
	return d
}

// countAllocs runs searches searches per tier on the plain sessions,
// one after another from fresh roots, and records the heap allocations
// of each Search call alone (runtime.ReadMemStats just before and after
// it). Call it when nothing else in the process runs: the counter is
// process-wide.
func (s *sweeper) countAllocs(searches int) {
	var m0, m1 runtime.MemStats
	for ti, tier := range tierNames {
		st := &s.tiers[ti]
		for range searches {
			b, i, ok := s.nextRoot()
			if !ok {
				return
			}
			s.o.attempted++
			runtime.ReadMemStats(&m0)
			r, err := s.plain.tiers[ti].BFS(b.roots[i])
			runtime.ReadMemStats(&m1)
			if err != nil {
				s.o.failf("%s from %d: %v", tier, b.roots[i], err)
				continue
			}
			s.o.answered++
			st.allocs = append(st.allocs, float64(m1.Mallocs-m0.Mallocs))
			s.ch.checkSearch(b, i, r, s.o)
		}
	}
}

// search runs root i of b on se and checks the answer off the clock; r
// is nil when the search failed.
func (s *sweeper) search(se *mcbfs.Searcher, b *rootBlock, i int, span string) (time.Duration, *mcbfs.Result) {
	s.o.attempted++
	sp := s.tr.span(int64(i), -1, span)
	t0 := time.Now()
	r, err := se.BFS(b.roots[i])
	d := time.Since(t0)
	s.tr.end(sp)
	if err != nil {
		s.o.failf("%s from %d: %v", span, b.roots[i], err)
		return d, nil
	}
	s.o.answered++
	s.ch.checkSearch(b, i, r, s.o)
	return d, r
}

// batches runs timed 64-lane replays of fresh roots until they have
// spent d (at least one). It returns the time they took.
func (s *sweeper) batches(d time.Duration) time.Duration {
	var spent time.Duration
	for first := true; first || spent < d; first = false {
		t, ok := s.searchBatch(len(s.batchMs))
		spent += t
		if !ok {
			break
		}
	}
	return spent
}

// searchBatch runs a new block of 64 roots as one batch and checks
// every lane; id -1 is the untimed warm-up. ok is false when the batch
// could not run or failed.
func (s *sweeper) searchBatch(id int) (d time.Duration, ok bool) {
	if s.err != nil {
		return 0, false
	}
	b, err := s.ch.block(s.src, mcbfs.MaxBatchLanes, s.depth)
	s.cur = nil // the table now holds b's depths
	if err != nil {
		s.err = err
		return 0, false
	}
	lanes := int64(len(b.roots))
	s.o.attempted += lanes
	sp := s.tr.span(int64(id), -1, "msbfs.Search")
	t0 := time.Now()
	res, err := s.plain.batch.Search(b.roots)
	d = time.Since(t0)
	s.tr.end(sp)
	if err != nil {
		s.o.failf("batch search: %v", err)
		s.o.failed += lanes - 1
		return d, false
	}
	s.o.answered += lanes
	s.ch.checkBatch(b, res, s.o)
	if id < 0 {
		return d, true
	}
	s.batchMs = append(s.batchMs, ms(d))
	for l := range b.roots {
		s.laneRef += b.answers[l].edges
		s.laneEdges += res.Edges[l]
	}
	s.scannedEdges += res.EdgesScanned
	return d, true
}

// report sets the core and msbfs metrics. Each tier's TEPS is its
// searches' reference edges over their summed call time: the harmonic
// mean of per-search TEPS weighted by each search's edges, so neither a
// root in a tiny component nor a root on which direction-optimizing
// happens to switch late dominates it. Every search counts: per-root
// variation, wide for direction-optimizing, is the program's, and
// dropping the slow searches would let the share of roots that happen
// to be fast decide the figure. batch_teps is the timed batches'
// reference lane edges per second. It returns the replay's answered
// lanes per second.
func (s *sweeper) report() (batchQPS float64) {
	o := s.o
	var plain, traced time.Duration
	for ti, tier := range tierNames {
		st := &s.tiers[ti]
		scanRatio := ratio(float64(st.scanned), float64(st.refEdges))
		teps := ratio(float64(st.refEdges), sum(st.times)) / 1e3
		o.set("teps."+tier, teps)
		o.set("core.search_ms."+tier, median(st.times))
		o.set("core.scan_ratio."+tier, scanRatio)
		o.notef("tier %-21s %3d searches  %8.2f ME/s  scan ratio %.3f", tier, len(st.times), teps, scanRatio)
		if s.traced != nil {
			o.set("core.allocs_per_query."+tier, mean(st.allocs))
			st.lc.report(tier, o)
			plain += st.plain
			traced += st.traced
		}
	}
	o.set("core.session_new_ms", median(s.plain.newMs))
	if s.traced != nil {
		o.set("obs.trace_overhead_frac", 1-ratio(float64(plain), float64(traced)))
	}
	secs := sum(s.batchMs) / 1e3
	batchQPS = ratio(float64(len(s.batchMs)*mcbfs.MaxBatchLanes), secs)
	o.set("batch_teps", ratio(float64(s.laneRef), secs)/1e6)
	o.set("msbfs.batch_ms", median(s.batchMs))
	o.set("msbfs.amortization", ratio(float64(s.laneEdges), float64(s.scannedEdges)))
	o.notef("batch replay %d x %d lanes  %8.2f ME/s  %.1f q/s", len(s.batchMs), mcbfs.MaxBatchLanes,
		ratio(float64(s.laneRef), secs)/1e6, batchQPS)
	return batchQPS
}

// levelCounters folds the per-level records of a tier's traced searches.
type levelCounters struct {
	edges, atomics, bitmapReads, remoteSends, steals int64
	imbalanceMass                                    float64 // Σ MaxWorkerEdges·Workers
	scan, barrier, drain, worker                     time.Duration
	searches                                         int
}

func (lc *levelCounters) add(t *mcbfs.Trace) {
	if t == nil {
		return
	}
	lc.searches++
	for _, l := range t.Levels {
		lc.edges += l.Edges
		lc.atomics += l.AtomicOps
		lc.bitmapReads += l.BitmapReads
		lc.remoteSends += l.RemoteSends
		lc.steals += l.Steals
		lc.imbalanceMass += float64(l.MaxWorkerEdges) * float64(l.Workers)
		lc.scan += l.Phases[mcbfs.PhaseLocalScan] + l.Phases[mcbfs.PhaseBottomUpScan]
		lc.barrier += l.Phases[mcbfs.PhaseBarrierWait]
		lc.drain += l.Phases[mcbfs.PhaseQueueDrain]
		lc.worker += time.Duration(l.Workers) * l.Duration
	}
}

func (lc *levelCounters) report(tier string, o *outcome) {
	e := float64(lc.edges)
	switch tier {
	case "parallel-simple", "single-socket":
		o.set("core.atomic_ops_per_edge."+tier, ratio(float64(lc.atomics), e))
		o.set("core.bitmap_reads_per_edge."+tier, ratio(float64(lc.bitmapReads), e))
	case "multi-socket":
		o.set("core.remote_sends_per_edge", ratio(float64(lc.remoteSends), e))
		o.set("core.steals", ratio(float64(lc.steals), float64(lc.searches)))
	case "sequential":
		return
	}
	w := float64(lc.worker)
	o.set("core.imbalance."+tier, ratio(lc.imbalanceMass, e))
	o.set("core.scan_frac."+tier, ratio(float64(lc.scan), w))
	o.set("core.barrier_frac."+tier, ratio(float64(lc.barrier), w))
	o.set("core.drain_frac."+tier, ratio(float64(lc.drain), w))
}
