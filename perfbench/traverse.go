package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mcbfs"
)

// traverseSpec configures the offline Graph500-style workload.
type traverseSpec struct {
	scale     int
	tierSlice time.Duration // search time per tier per round, times sliceFactor
}

var traverseDefault = traverseSpec{scale: 20, tierSlice: 400 * time.Millisecond}

// sliceFactor widens a tier's slice. Direction-optimizing's time varies
// widely from root to root with where it switches direction, so it needs
// many more roots than the other tiers for a steady figure, and its
// searches are the shortest. A multi-socket search takes about 1 s at
// scale 20, so a plain slice would give it one search per round.
var sliceFactor = map[string]int{"multi-socket": 4, "direction-optimizing": 3}

const (
	edgeFactor          = 16 // of every workload's graph
	traverseSetupReps   = 3
	traverseMinRounds   = 4 // rounds, however long they take
	traverseMaxRounds   = 16
	traverseAllocChecks = 3 // searches per tier, in a traced run
)

// traverseSetup is one setup's product: the CSR, its transpose (read by
// the direction-optimizing tier) and the warm sessions.
type traverseSetup struct {
	g, transpose     *mcbfs.Graph
	sess             *sessions
	build, transp, t time.Duration
}

func setupTraverse(in *input, tr *tracer, rep int) (*traverseSetup, error) {
	ts := &traverseSetup{}
	root := tr.span(int64(rep), -1, "setup")
	defer tr.end(root)
	start := time.Now()

	i := tr.span(int64(rep), root, "graph.NewGraphFromArrays")
	g, err := mcbfs.NewGraphFromArrays(in.n, in.srcs, in.dsts)
	ts.build = time.Since(start)
	tr.end(i)
	if err != nil {
		return nil, err
	}
	ts.g = g
	i = tr.span(int64(rep), root, "graph.Transpose")
	t0 := time.Now()
	ts.transpose = g.Transpose()
	ts.transp = time.Since(t0)
	tr.end(i)
	if ts.sess, err = openSessions(g, ts.transpose, nil, false, true, tr, root); err != nil {
		return nil, err
	}
	ts.t = time.Since(start)
	return ts, nil
}

// runTraverse is the offline workload: no Pool, no ordering, no
// telemetry — the graph, core and msbfs layers alone, on a graph whose
// CSR and transpose far exceed the last-level cache.
func runTraverse(spec traverseSpec, cfg runConfig, o *outcome, tr *tracer) error {
	t := time.Now()
	in := genRMAT(spec.scale, edgeFactor, cfg.seed)
	o.fp = in.fp
	t = o.phase("generate", t)

	var ts *traverseSetup
	var setupS, buildS, transposeS []float64
	for rep := 0; rep < traverseSetupReps; rep++ {
		if ts != nil {
			ts.sess.close()
			ts = nil
		}
		runtime.GC()
		var err error
		if ts, err = setupTraverse(in, tr, rep); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, ts.t.Seconds())
		buildS = append(buildS, ts.build.Seconds())
		transposeS = append(transposeS, ts.transp.Seconds())
	}
	defer ts.sess.close()
	t = o.phase("setup", t)
	if err := verifyGraph(ts.g, in.fp); err != nil {
		return fmt.Errorf("graph layer: %w", err)
	}
	in.srcs, in.dsts = nil, nil
	o.set("setup_s", lowerHalf(setupS))
	o.set("graph.build_s", median(buildS))
	o.set("graph.transpose_s", median(transposeS))
	o.set("heap_mb", heapMB())
	o.set("graph.bytes_per_edge",
		float64(ts.g.MemoryFootprint()+ts.transpose.MemoryFootprint())/float64(ts.g.NumEdges()))
	settle()

	ch := newChecker(&refGraph{n: in.n, parts: []csr{systemCSR(ts.g)}})
	src := newRootSource(ts.g.Offsets(), cfg.seed^0x5eed)
	var traced *sessions
	if cfg.trace {
		var err error
		if traced, err = openSessions(ts.g, ts.transpose, nil, true, false, nil, -1); err != nil {
			return err
		}
		defer traced.close()
	}
	sw := newSweeper(ts.sess, traced, ch, src, o, tr)
	t = o.phase("warm-up", t)

	// Rounds fill the run: every tier searches for at least its slice,
	// and a timed batch follows every round.
	tierSlices := uniformSlices(spec.tierSlice)
	for tier, f := range sliceFactor {
		tierSlices[slices.Index(tierNames, tier)] *= time.Duration(f)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var spent time.Duration
	rounds := 0
	for sw.err == nil && rounds < traverseMaxRounds && (rounds < traverseMinRounds || spent < budget) {
		spent += sw.round(tierSlices)
		spent += sw.batches(0)
		rounds++
	}
	if cfg.trace {
		sw.countAllocs(traverseAllocChecks)
	}
	if sw.err != nil {
		return sw.err
	}
	o.phase("rounds", t)
	o.notef("roots: %d of %d handed out, none twice", src.next, len(src.roots))

	// A caller of mcbfs.BFS with default options on this two-CPU host
	// gets the single-socket tier; its search time is the workload's
	// query latency, and the replay's answered lanes its capacity.
	o.set("capacity_qps", sw.report())
	o.set("latency_p50_ms", median(sw.tiers[slices.Index(tierNames, "single-socket")].times))
	return nil
}
