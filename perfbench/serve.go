package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mcbfs"
	"mcbfs/internal/rng"
)

// serveSpec configures one serving workload: a Pool over an R-MAT graph
// driven by an open loop of Poisson arrivals at a fixed rate and by a
// closed loop of callers, optionally with a writer that ingests edges
// and rebuilds on a fixed period beside the open loop.
type serveSpec struct {
	scale         int
	ordering      mcbfs.Ordering
	lanes         int           // Pool batching lanes; 0 serves one query per Searcher
	rate          float64       // open-loop arrivals per second
	closedCallers int           // closed-loop callers
	limit         time.Duration // latency limit, also the Pool's DefaultTimeout
	ingestPeriod  time.Duration // writer period; 0 runs no writer
	ingestPairs   int           // undirected edges per write batch
	// setupReps setups run before the load, and as many again after
	// each round; setup_s is the median of all of them.
	setupReps int
}

var serveSpecs = map[string]serveSpec{
	"serve-batched": {scale: 16, ordering: mcbfs.OrderNatural, lanes: 64,
		rate: 200, closedCallers: 64, limit: 600 * time.Millisecond, setupReps: 8},
	"serve-ingest": {scale: 14, ordering: mcbfs.OrderDegreeGroup,
		rate: 60, closedCallers: 2, limit: 300 * time.Millisecond,
		ingestPeriod: time.Second, ingestPairs: 10000, setupReps: 8},
}

// A serving run is serveRounds rounds, each an open-loop segment, a
// closed-loop segment, a tier sweep, a batch replay and setups, so that
// a slow stretch of the host lands on one round of every phase rather
// than on the whole of one phase. The shares are of --seconds; the open
// loop also runs long enough to answer minOpenQueries, so that at least
// ten answers lie beyond its p99.
const (
	serveRounds      = 5
	openShare        = 0.30
	closedShare      = 0.17
	tierShare        = 0.45
	batchShare       = 0.08
	serveAllocChecks = 8 // searches per tier, in a traced run
	minOpenQueries   = 1010
)

// served is one query's record.
type served struct {
	root                    mcbfs.Vertex
	due, call, done         time.Time
	dur                     time.Duration // Result.Duration, the search proper
	reached                 int64
	levels                  int
	err                     error
	epochBefore, epochAfter int64 // Pool.Epoch around the call
}

func (s *served) latency() time.Duration { return s.done.Sub(s.due) }

// servePool is one setup's product.
type servePool struct {
	g                       *mcbfs.Graph
	rd                      *mcbfs.Reordered
	pool                    *mcbfs.Pool
	met                     *mcbfs.Metrics
	build, reorder, newPool time.Duration
}

func setupPool(spec serveSpec, in *input, tr *tracer, rep int) (*servePool, error) {
	sp := &servePool{met: &mcbfs.Metrics{}}
	root := tr.span(int64(rep), -1, "setup")
	defer tr.end(root)

	i := tr.span(int64(rep), root, "graph.NewGraphFromArrays")
	t0 := time.Now()
	g, err := mcbfs.NewGraphFromArrays(in.n, in.srcs, in.dsts)
	sp.build = time.Since(t0)
	tr.end(i)
	if err != nil {
		return nil, err
	}
	sp.g = g
	if spec.ordering != mcbfs.OrderNatural {
		i = tr.span(int64(rep), root, "graph.Reorder")
		t0 = time.Now()
		sp.rd, err = mcbfs.Reorder(g, spec.ordering)
		sp.reorder = time.Since(t0)
		tr.end(i)
		if err != nil {
			return nil, err
		}
	}
	i = tr.span(int64(rep), root, "pool.NewPool")
	t0 = time.Now()
	sp.pool, err = mcbfs.NewPool(g, mcbfs.PoolOptions{
		Search:         mcbfs.Options{Threads: 2, Reordered: sp.rd},
		DefaultTimeout: spec.limit,
		Metrics:        sp.met,
		Telemetry:      mcbfs.NewTelemetry(mcbfs.TelemetryOptions{Metrics: sp.met}),
		Batching:       mcbfs.BatchingOptions{Lanes: spec.lanes},
	})
	sp.newPool = time.Since(t0)
	tr.end(i)
	return sp, err
}

func (sp *servePool) setupTime() time.Duration { return sp.build + sp.reorder + sp.newPool }

func runServe(spec serveSpec, cfg runConfig, o *outcome, tr *tracer) error {
	t := time.Now()
	in := genRMAT(spec.scale, edgeFactor, cfg.seed)
	o.fp = in.fp
	t = o.phase("generate", t)

	// Setups run before the load and again after every round, so that a
	// slow stretch of the host lands on a few of them only. Each but the
	// first Pool is closed once built; the first serves the run.
	var sp *servePool
	var setupS, buildS, reorderS []float64
	setups := func(in *input) error {
		for rep := 0; rep < spec.setupReps; rep++ {
			runtime.GC()
			s, err := setupPool(spec, in, tr, len(setupS))
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setupS = append(setupS, s.setupTime().Seconds())
			buildS = append(buildS, s.build.Seconds())
			reorderS = append(reorderS, s.reorder.Seconds())
			if sp == nil {
				sp = s
			} else if err := s.pool.Close(); err != nil {
				return fmt.Errorf("closing setup pool: %w", err)
			}
		}
		return nil
	}
	if err := setups(in); err != nil {
		return err
	}
	pool := sp.pool
	defer pool.Close()
	t = o.phase("setup", t)
	if err := verifyGraph(sp.g, in.fp); err != nil {
		return fmt.Errorf("graph layer: %w", err)
	}
	n := in.n
	in = nil
	o.set("heap_mb", heapMB())
	footprint := sp.g.MemoryFootprint()
	if sp.rd != nil {
		footprint += sp.rd.Graph.MemoryFootprint()
	}
	o.set("graph.bytes_per_edge", float64(footprint)/float64(sp.g.NumEdges()))

	secs := cfg.seconds
	openN := max(minOpenQueries, int(spec.rate*openShare*secs))
	src := newRootSource(sp.g.Offsets(), cfg.seed^0x5eed)
	openRoots, err := src.take(openN)
	if err != nil {
		return err
	}
	r := rng.New(cfg.seed ^ 0xa11)

	// Sessions for the sweep are built before the load starts, so the
	// rounds below measure only warm searches.
	base := &refGraph{n: n, parts: []csr{systemCSR(sp.g)}}
	plain, err := openSessions(sp.g, sp.g, sp.rd, false, true, nil, -1)
	if err != nil {
		return err
	}
	defer plain.close()
	var traced *sessions
	if cfg.trace {
		if traced, err = openSessions(sp.g, sp.g, sp.rd, true, false, nil, -1); err != nil {
			return err
		}
		defer traced.close()
	}
	sw := newSweeper(plain, traced, newChecker(base), src, o, tr)
	settle()
	t = o.phase("sessions", t)

	var w *writer
	if spec.ingestPeriod > 0 {
		w = &writer{period: spec.ingestPeriod, pairs: spec.ingestPairs, n: n, r: rng.New(cfg.seed ^ 0x1e57)}
	}
	// The setups after each round need the edge arrays again; they are
	// regenerated, after heap_mb was taken without them.
	in = genRMAT(spec.scale, edgeFactor, cfg.seed)
	var open openResult
	var closed []served
	var answeredN, closedSecs []float64 // per closed-loop segment
	round := func(d float64) time.Duration {
		return time.Duration(d * secs / serveRounds * float64(time.Second))
	}
	tierSlices := uniformSlices(round(tierShare / float64(len(tierNames))))
	for k := 0; k < serveRounds && sw.err == nil; k++ {
		// The open loop's segment, with the writer beside it.
		seg := openRoots[k*openN/serveRounds : (k+1)*openN/serveRounds]
		load := func() { open.add(openLoop(pool, seg, spec.rate, int64(len(open.records)), r, tr)) }
		if w != nil {
			w.during(pool, load, tr)
		} else {
			load()
		}

		t0 := time.Now()
		recs := closedLoop(pool, src.rest(), spec.closedCallers, round(closedShare), int64(len(closed)), tr)
		elapsed := time.Since(t0)
		answered := 0
		for i := range recs {
			if recs[i].err == nil {
				answered++
			}
		}
		answeredN = append(answeredN, float64(answered))
		closedSecs = append(closedSecs, elapsed.Seconds())
		src.skip(len(recs))
		closed = append(closed, recs...)

		sw.round(tierSlices)
		sw.batches(round(batchShare))
		if err := setups(in); err != nil {
			return err
		}
		settle()
	}
	in = nil
	if cfg.trace {
		sw.countAllocs(serveAllocChecks)
	}
	if sw.err != nil {
		return sw.err
	}
	t = o.phase("rounds", t)
	sw.report()
	o.set("setup_s", lowerHalf(setupS))
	o.set("graph.build_s", median(buildS))
	o.set("graph.reorder_s", median(reorderS))
	o.notef("setups: %d, setup_s quartiles %.4f %.4f %.4f s", len(setupS),
		quantile(setupS, 0.25), median(setupS), quantile(setupS, 0.75))
	o.notef("roots: %d of %d handed out, none twice", src.next, len(src.roots))

	var batches [][]mcbfs.Edge
	if w != nil {
		batches = w.report(o)
	}
	checkServed(base, batches, slices.Concat(open.records, closed), o)
	o.phase("check", t)
	o.set("capacity_qps", fasterHalf(answeredN, closedSecs))
	scoreServed(spec, open, closed, sp.met, o)
	return nil
}

// heapMB is the Go heap in use after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// settle collects garbage and returns every free page to the OS now,
// off the clock, so that the runtime's background scavenger does not
// release them later, beside a timed search.
func settle() { debug.FreeOSMemory() }

// openResult is the open loop's records and generator lateness.
type openResult struct {
	records  []served
	lateness []float64 // ms behind schedule at each send
	segments []int     // records per segment, in order
}

func (r *openResult) add(seg openResult) {
	r.records = append(r.records, seg.records...)
	r.lateness = append(r.lateness, seg.lateness...)
	r.segments = append(r.segments, len(seg.records))
}

// openLoop sends len(roots) queries at Poisson arrivals of the given
// rate from one generator goroutine. Each query is timed from its due
// time, so a stall that delays later sends shows in their latency.
// Callers are a fixed set of goroutines, more than the Pool can have in
// flight, so the Pool's admission — not the harness — is what queues.
func openLoop(pool *mcbfs.Pool, roots []mcbfs.Vertex, rate float64, idBase int64, r *rng.Xoshiro256, tr *tracer) openResult {
	n := len(roots)
	res := openResult{records: make([]served, n), lateness: make([]float64, n)}
	start := time.Now().Add(10 * time.Millisecond)
	at := time.Duration(0)
	for i := range res.records {
		at += time.Duration(-math.Log(1-r.Float64()) / rate * float64(time.Second))
		res.records[i] = served{root: roots[i], due: start.Add(at)}
	}
	jobs := make(chan int, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < 256; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ask(pool, &res.records[i], idBase+int64(i), tr)
			}
		}()
	}
	for i := range res.records {
		due := res.records[i].due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateness[i] = ms(time.Since(due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}

// closedLoop runs callers that each send their next query when the
// previous one returns, until d has passed or the roots run out.
func closedLoop(pool *mcbfs.Pool, roots []mcbfs.Vertex, callers int, d time.Duration, idBase int64, tr *tracer) []served {
	records := make([]served, len(roots))
	var next atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(roots)) {
					return
				}
				records[i] = served{root: roots[i], due: time.Now()}
				ask(pool, &records[i], 1<<32+idBase+i, tr)
			}
		}()
	}
	wg.Wait()
	return records[:min(next.Load(), int64(len(roots)))]
}

// ask sends one query and fills its record.
func ask(pool *mcbfs.Pool, rec *served, id int64, tr *tracer) {
	rec.epochBefore = pool.Epoch()
	req := tr.spanAt(id, -1, "request", rec.due)
	q := tr.span(id, req, "pool.Query")
	rec.call = time.Now()
	res, err := pool.Query(context.Background(), rec.root)
	rec.done = time.Now()
	tr.end(q)
	tr.end(req)
	rec.epochAfter = pool.Epoch()
	rec.err, rec.dur, rec.reached, rec.levels = err, res.Duration, res.Reached, res.Levels
}

// writer is serve-ingest's update stream: while it runs, it ingests
// one fixed-size batch of random edges every period and rebuilds, so
// each batch becomes one new epoch.
type writer struct {
	period              time.Duration
	pairs, n            int
	r                   *rng.Xoshiro256
	batches             [][]mcbfs.Edge // batches[k] is ingested for epoch k+2
	ingestUs, rebuildMs []float64
	errs                []error
	done                int // batches ingested and rebuilt
}

// during runs fn with the writer beside it, from fn's start until it
// returns. A write that failed stops the writer for the rest of the run.
func (w *writer) during(pool *mcbfs.Pool, fn func(), tr *tracer) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(w.period)
		defer tick.Stop()
		for len(w.errs) == 0 {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			w.write(pool, tr)
		}
	}()
	fn()
	close(quit)
	wg.Wait()
}

// write ingests the next batch and rebuilds.
func (w *writer) write(pool *mcbfs.Pool, tr *tracer) {
	k := w.done
	batch := randomEdges(w.n, w.pairs, w.r)
	w.batches = append(w.batches, batch)
	i := tr.span(int64(k), -1, "swap.Ingest")
	t0 := time.Now()
	_, err := pool.Ingest(batch)
	w.ingestUs = append(w.ingestUs, float64(time.Since(t0))/1e3)
	tr.end(i)
	if err == nil {
		i = tr.span(int64(k), -1, "swap.Rebuild")
		t0 = time.Now()
		var epoch int64
		epoch, err = pool.Rebuild()
		w.rebuildMs = append(w.rebuildMs, ms(time.Since(t0)))
		tr.end(i)
		if err == nil && (epoch != int64(k)+2 || pool.Epoch() < epoch) {
			err = fmt.Errorf("rebuild %d returned epoch %d, serving %d", k, epoch, pool.Epoch())
		}
	}
	if err != nil {
		w.errs = append(w.errs, err)
		return
	}
	w.done++
}

// report scores the writer and returns the batches each epoch holds:
// epoch e serves the base graph plus batches[:e-1].
func (w *writer) report(o *outcome) [][]mcbfs.Edge {
	o.attempted += int64(w.done + len(w.errs))
	for _, err := range w.errs {
		o.failf("writer: %v", err)
	}
	o.set("update_visible_ms", median(w.rebuildMs))
	o.set("swap.rebuild_ms", median(w.rebuildMs))
	o.set("swap.ingest_us", median(w.ingestUs))
	o.notef("writer: %d batches ingested and rebuilt", w.done)
	return w.batches[:w.done]
}

// checkServed compares every answered query with the reference on the
// epoch that served it; scoreServed counts the answers, so an answer
// this misses shows as unchecked. A query whose Pool.Epoch was the same before
// and after the call was served by that epoch; one that straddled a
// swap must match one of the epochs it straddled.
func checkServed(base *refGraph, batches [][]mcbfs.Edge, records []served, o *outcome) {
	byEpoch := map[int64][]int{}
	maxEpoch := int64(1)
	straddled := 0
	for i := range records {
		rec := &records[i]
		if rec.err != nil {
			continue
		}
		if rec.epochBefore != rec.epochAfter {
			straddled++
		}
		for e := rec.epochBefore; e <= rec.epochAfter; e++ {
			byEpoch[e] = append(byEpoch[e], i)
		}
		maxEpoch = max(maxEpoch, rec.epochAfter)
	}
	matched := make([]bool, len(records))
	compared := make([]bool, len(records))
	var added []mcbfs.Edge
	for e := int64(1); e <= maxEpoch; e++ {
		if e > 1 {
			added = append(added, batches[e-2]...)
		}
		idx := byEpoch[e]
		if len(idx) == 0 {
			continue
		}
		g := base
		if len(added) > 0 {
			g = &refGraph{n: base.n, parts: []csr{base.parts[0], buildCSR(base.n, added)}}
		}
		roots := make([]mcbfs.Vertex, len(idx))
		for k, i := range idx {
			roots[k] = records[i].root
		}
		for k, a := range newRefSearch(g, runtime.GOMAXPROCS(0)).answerAll(roots) {
			rec := &records[idx[k]]
			compared[idx[k]] = true
			if rec.reached == a.reached && rec.levels == a.levels {
				matched[idx[k]] = true
			}
		}
	}
	for i := range records {
		rec := &records[i]
		if !compared[i] {
			continue
		}
		o.checked++
		if !matched[i] {
			o.wrongf("query from %d (epochs %d-%d): reached %d in %d levels, no serving epoch agrees",
				rec.root, rec.epochBefore, rec.epochAfter, rec.reached, rec.levels)
		}
	}
	if maxEpoch > 1 {
		o.notef("checked answers against %d epochs; %d answers straddled a swap", maxEpoch, straddled)
	}
}

// scoreServed derives the serving metrics. A query fails when the Pool
// refused it, it timed out or errored, or it finished later than the
// latency limit after its due time.
func scoreServed(spec serveSpec, open openResult, closed []served, met *mcbfs.Metrics, o *outcome) {
	var lat, overhead, search []float64
	var shed, timedOut int
	score := func(rec *served, openLoop bool) {
		o.attempted++
		// A failed query missed the limit: it counts as at least that late.
		l := ms(max(rec.latency(), spec.limit))
		switch {
		case errors.Is(rec.err, mcbfs.ErrPoolSaturated):
			shed++
			o.failf("query from %d shed: %v", rec.root, rec.err)
		case errors.Is(rec.err, context.DeadlineExceeded):
			timedOut++
			o.failf("query from %d timed out", rec.root)
		case rec.err != nil:
			o.failf("query from %d: %v", rec.root, rec.err)
		case rec.latency() > spec.limit:
			o.failf("query from %d answered in %v, beyond the %v limit", rec.root, rec.latency(), spec.limit)
		default:
			l = ms(rec.latency())
		}
		if openLoop {
			lat = append(lat, l)
		}
		if rec.err == nil {
			o.answered++
			overhead = append(overhead, ms(rec.done.Sub(rec.call)-rec.dur))
			search = append(search, ms(rec.dur))
		}
	}
	for i := range open.records {
		score(&open.records[i], true)
	}
	for i := range closed {
		score(&closed[i], false)
	}
	// p50 is the mean of the lower half of the segments' medians, so
	// that a stretch in which the host slowed every query moves it
	// little; p99 pools every answer.
	var p50s []float64
	at := 0
	for _, n := range open.segments {
		p50s = append(p50s, median(lat[at:at+n]))
		at += n
	}
	o.set("latency_p50_ms", lowerHalf(p50s))
	o.set("latency_p99_ms", quantile(lat, 0.99))
	o.set("pool.overhead_p50_ms", median(overhead))
	o.set("pool.overhead_p99_ms", quantile(overhead, 0.99))
	o.set("pool.search_ms", median(search))
	o.set("pool.batch_width", ratio(float64(met.BatchLanes.Load()), float64(met.BatchTraversals.Load())))
	o.set("pool.shed", float64(shed))
	o.set("pool.timed_out", float64(timedOut))
	o.set("swap.degraded", float64(met.SwapDegraded.Load()))
	o.set("swap.drained", float64(met.SnapshotsDrained.Load()))
	o.set("bench.lateness_p99_ms", quantile(open.lateness, 0.99))
	o.notef("open loop: %d queries at %.0f q/s in %d segments, p50 %.2f ms (segments %.2f-%.2f), p99 %.2f ms (%d beyond p99)",
		len(open.records), spec.rate, len(p50s), lowerHalf(p50s), quantile(p50s, 0), quantile(p50s, 1),
		quantile(lat, 0.99), len(lat)-int(math.Ceil(0.99*float64(len(lat)))))
	o.notef("closed loop: %d queries from %d callers, median %.1f q/s", len(closed), spec.closedCallers, o.values["capacity_qps"])
}
