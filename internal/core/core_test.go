package core

import (
	"testing"
	"time"

	"mcbfs/internal/gen"
	"mcbfs/internal/graph"
	"mcbfs/internal/topology"
)

// allAlgorithms lists the concrete tiers (not AlgAuto).
var allAlgorithms = []Algorithm{AlgSequential, AlgParallelSimple, AlgSingleSocket, AlgMultiSocket}

// run executes BFS and fails the test on error.
func run(t *testing.T, g *graph.Graph, root graph.Vertex, opt Options) *Result {
	t.Helper()
	res, err := BFS(g, root, opt)
	if err != nil {
		t.Fatalf("BFS(%v): %v", opt.Algorithm, err)
	}
	return res
}

// validate runs ValidateTree and fails on error.
func validate(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if err := ValidateTree(g, res.Root, res.Parents); err != nil {
		t.Fatalf("%v (threads=%d): %v", res.Algorithm, res.Threads, err)
	}
}

// must unwraps a generator result; generator failures in tests are
// programming errors, not test conditions.
func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func TestBFSRejectsBadInput(t *testing.T) {
	if _, err := BFS(nil, 0, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	g := must(gen.Chain(3))
	if _, err := BFS(g, 3, Options{}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := BFS(g, 0, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSequentialChain(t *testing.T) {
	g := must(gen.Chain(10))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})
	validate(t, g, res)
	if res.Reached != 10 {
		t.Errorf("Reached = %d, want 10", res.Reached)
	}
	if res.Levels != 10 {
		t.Errorf("Levels = %d, want 10", res.Levels)
	}
	if res.EdgesTraversed != 9 {
		t.Errorf("EdgesTraversed = %d, want 9", res.EdgesTraversed)
	}
	for v := 1; v < 10; v++ {
		if res.Parents[v] != uint32(v-1) {
			t.Errorf("Parents[%d] = %d, want %d", v, res.Parents[v], v-1)
		}
	}
}

func TestSequentialUnreachable(t *testing.T) {
	// Chain explored from the middle: earlier vertices unreachable.
	g := must(gen.Chain(10))
	res := run(t, g, 5, Options{Algorithm: AlgSequential})
	validate(t, g, res)
	if res.Reached != 5 {
		t.Errorf("Reached = %d, want 5", res.Reached)
	}
	for v := 0; v < 5; v++ {
		if res.Parents[v] != NoParent {
			t.Errorf("Parents[%d] = %d, want NoParent", v, res.Parents[v])
		}
	}
}

func TestSequentialSingleVertex(t *testing.T) {
	g := must(graph.FromAdjacency([][]graph.Vertex{{}}))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})
	validate(t, g, res)
	if res.Reached != 1 || res.Levels != 1 || res.EdgesTraversed != 0 {
		t.Errorf("got Reached=%d Levels=%d Edges=%d", res.Reached, res.Levels, res.EdgesTraversed)
	}
}

func TestSequentialSelfLoop(t *testing.T) {
	g := must(graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}}))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})
	validate(t, g, res)
	if res.Reached != 2 {
		t.Errorf("Reached = %d, want 2", res.Reached)
	}
}

// TestAllAlgorithmsAgreeOnFamilies is the central cross-validation:
// every tier, at several thread counts, on every graph family, must
// produce a valid BFS tree reaching the same vertex set with the same
// m_a and level count as the sequential reference.
func TestAllAlgorithmsAgreeOnFamilies(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
		root graph.Vertex
	}{
		{"uniform", must(gen.Uniform(2000, 8, 1)), 0},
		{"rmat", must(gen.RMAT(11, 16384, gen.GTgraphDefaults, 2)), 1},
		{"grid", must(gen.Grid(40, 50, 4)), 0},
		{"ssca2", must(gen.SSCA2(1000, 8, 0.2, 3)), 5},
		{"chain", must(gen.Chain(500)), 0},
		{"star", must(gen.Star(500)), 0},
		{"tree", must(gen.BinaryTree(9)), 0},
		{"sparse-islands", must(gen.Uniform(3000, 1, 4)), 7},
	}
	machines := []topology.Machine{
		topology.Generic(1, 4, 2),
		topology.NehalemEP,
		topology.NehalemEX,
	}
	for _, f := range families {
		ref := run(t, f.g, f.root, Options{Algorithm: AlgSequential})
		validate(t, f.g, ref)
		for _, alg := range allAlgorithms[1:] {
			for _, threads := range []int{1, 2, 3, 8} {
				for _, m := range machines {
					res := run(t, f.g, f.root, Options{
						Algorithm: alg,
						Threads:   threads,
						Machine:   m,
					})
					validate(t, f.g, res)
					if res.Reached != ref.Reached {
						t.Errorf("%s/%v/t%d/%s: Reached = %d, want %d",
							f.name, alg, threads, m.Name, res.Reached, ref.Reached)
					}
					if res.EdgesTraversed != ref.EdgesTraversed {
						t.Errorf("%s/%v/t%d/%s: EdgesTraversed = %d, want %d",
							f.name, alg, threads, m.Name, res.EdgesTraversed, ref.EdgesTraversed)
					}
					if res.Levels != ref.Levels {
						t.Errorf("%s/%v/t%d/%s: Levels = %d, want %d",
							f.name, alg, threads, m.Name, res.Levels, ref.Levels)
					}
				}
			}
		}
	}
}

func TestMultiSocketManyThreads(t *testing.T) {
	// 64 logical threads on the EX topology, more threads than host
	// cores: exercises barrier scheduling and all 4 channel pairs.
	g := must(gen.Uniform(5000, 16, 9))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	res := run(t, g, 0, Options{
		Algorithm: AlgMultiSocket,
		Threads:   64,
		Machine:   topology.NehalemEX,
	})
	validate(t, g, res)
	if res.Reached != ref.Reached || res.EdgesTraversed != ref.EdgesTraversed {
		t.Errorf("EX-64: Reached=%d/%d Edges=%d/%d",
			res.Reached, ref.Reached, res.EdgesTraversed, ref.EdgesTraversed)
	}
}

func TestMoreThreadsThanVertices(t *testing.T) {
	g := must(gen.Chain(3))
	for _, alg := range []Algorithm{AlgParallelSimple, AlgSingleSocket, AlgMultiSocket} {
		res := run(t, g, 0, Options{Algorithm: alg, Threads: 16, Machine: topology.NehalemEP})
		validate(t, g, res)
		if res.Reached != 3 {
			t.Errorf("%v: Reached = %d, want 3", alg, res.Reached)
		}
	}
}

func TestDisableDoubleCheck(t *testing.T) {
	g := must(gen.Uniform(1000, 8, 5))
	cases := []struct {
		name string
		opt  Options
	}{
		{"single-socket", Options{Algorithm: AlgSingleSocket}},
		{"multi-socket", Options{Algorithm: AlgMultiSocket}},
		// A budget of 4 makes every vertex a hub, so every edge goes
		// through the hub-drain path.
		{"single-socket/hubs", Options{Algorithm: AlgSingleSocket, EdgeBudget: 4}},
		{"multi-socket/hubs", Options{Algorithm: AlgMultiSocket, EdgeBudget: 4}},
		// Alpha 1 never switches to bottom-up: every level is top-down.
		{"direction-optimizing/top-down", Options{Algorithm: AlgDirectionOptimizing, HybridAlpha: 1}},
	}
	for _, c := range cases {
		opt := c.opt
		opt.Threads = 4
		opt.Machine = topology.NehalemEP
		opt.DisableDoubleCheck = true
		opt.Instrument = true
		res := run(t, g, 0, opt)
		validate(t, g, res)
		// Without the double check every scanned neighbour costs an
		// atomic op and no plain probes happen.
		var atomics, probes, edges int64
		for _, ls := range res.PerLevel {
			atomics += ls.AtomicOps
			probes += ls.BitmapReads
			edges += ls.Edges
		}
		if probes != 0 {
			t.Errorf("%s: %d bitmap probes with double-check disabled", c.name, probes)
		}
		if atomics != edges {
			t.Errorf("%s: atomics = %d, want one per scanned edge %d", c.name, atomics, edges)
		}
	}
}

// TestDoubleCheckReducesAtomics verifies the mechanism behind the
// paper's Fig. 4: with the plain probe enabled, atomic operations are
// far fewer than bitmap reads in the later levels of a random graph.
func TestDoubleCheckReducesAtomics(t *testing.T) {
	g := must(gen.Uniform(20000, 8, 6))
	res := run(t, g, 0, Options{
		Algorithm:  AlgSingleSocket,
		Threads:    4,
		Instrument: true,
	})
	validate(t, g, res)
	if len(res.PerLevel) < 3 {
		t.Fatalf("graph too shallow for the test: %d levels", len(res.PerLevel))
	}
	late := res.PerLevel[len(res.PerLevel)-2]
	if late.AtomicOps*2 > late.BitmapReads && late.BitmapReads > 100 {
		t.Errorf("late level: %d atomics vs %d probes; double check not effective",
			late.AtomicOps, late.BitmapReads)
	}
	var totalAtomics int64
	for _, ls := range res.PerLevel {
		totalAtomics += ls.AtomicOps
	}
	// Each vertex is claimed at most once plus losing attempts; the
	// total must be far below one atomic per edge.
	if totalAtomics >= res.EdgesTraversed {
		t.Errorf("total atomics %d not below edges %d", totalAtomics, res.EdgesTraversed)
	}
}

func TestInstrumentationConsistency(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"uniform", must(gen.Uniform(3000, 8, 7))},
		{"rmat12", must(gen.RMAT(12, 16<<12, gen.Graph500Params, 7))},
	}
	// Budget 4 sends every vertex through the hub board; 0 is the
	// automatic budget; EdgeBudgetOff is fixed vertex-count chunking.
	budgets := []int64{4, 0, EdgeBudgetOff}
	algs := append(append([]Algorithm(nil), allAlgorithms...), AlgDirectionOptimizing)
	for _, gc := range graphs {
		ref := run(t, gc.g, 0, Options{Algorithm: AlgSequential})
		for _, alg := range algs {
			for _, budget := range budgets {
				res := run(t, gc.g, 0, Options{
					Algorithm:  alg,
					Threads:    4,
					Machine:    topology.NehalemEP,
					EdgeBudget: budget,
					Instrument: true,
				})
				if len(res.PerLevel) != res.Levels {
					t.Errorf("%s/%v/budget=%d: %d PerLevel entries, %d levels",
						gc.name, alg, budget, len(res.PerLevel), res.Levels)
				}
				var frontier, edges int64
				for _, ls := range res.PerLevel {
					frontier += ls.Frontier
					edges += ls.Edges
				}
				if frontier != res.Reached {
					t.Errorf("%s/%v/budget=%d: sum of frontiers %d != reached %d",
						gc.name, alg, budget, frontier, res.Reached)
				}
				if edges != res.EdgesTraversed {
					t.Errorf("%s/%v/budget=%d: sum of level edges %d != EdgesTraversed %d",
						gc.name, alg, budget, edges, res.EdgesTraversed)
				}
				// Top-down tiers scan every edge of every reached vertex
				// exactly once, hub ranges included; bottom-up levels
				// exit early, so the hybrid scans fewer.
				if alg != AlgDirectionOptimizing && res.EdgesTraversed != ref.EdgesTraversed {
					t.Errorf("%s/%v/budget=%d: EdgesTraversed %d, sequential scans %d",
						gc.name, alg, budget, res.EdgesTraversed, ref.EdgesTraversed)
				}
			}
		}
	}
}

func TestInstrumentationDurations(t *testing.T) {
	g := must(gen.Uniform(20000, 8, 14))
	for _, alg := range []Algorithm{AlgSequential, AlgSingleSocket, AlgMultiSocket, AlgDirectionOptimizing} {
		res := run(t, g, 0, Options{Algorithm: alg, Threads: 4, Machine: topology.NehalemEP, Instrument: true})
		var sum int64
		nonZero := 0
		for _, ls := range res.PerLevel {
			if ls.Duration < 0 {
				t.Errorf("%v: negative level duration", alg)
			}
			if ls.Duration > 0 {
				nonZero++
			}
			sum += int64(ls.Duration)
		}
		if nonZero == 0 {
			t.Errorf("%v: no level recorded a positive duration", alg)
		}
		// Level durations must not wildly exceed the whole run.
		if sum > 3*int64(res.Duration)+int64(time.Millisecond) {
			t.Errorf("%v: level durations sum to %v, run took %v", alg, time.Duration(sum), res.Duration)
		}
	}
}

func TestNoInstrumentationByDefault(t *testing.T) {
	g := must(gen.Chain(10))
	res := run(t, g, 0, Options{Algorithm: AlgSingleSocket, Threads: 2})
	if res.PerLevel != nil {
		t.Error("PerLevel populated without Instrument")
	}
}

func TestAutoSelection(t *testing.T) {
	g := must(gen.Chain(10))
	cases := []struct {
		threads int
		machine topology.Machine
		want    Algorithm
	}{
		{1, topology.NehalemEP, AlgSequential},
		{4, topology.NehalemEP, AlgSingleSocket},
		{8, topology.NehalemEP, AlgMultiSocket},
		{16, topology.NehalemEX, AlgMultiSocket},
		{8, topology.NehalemEX, AlgSingleSocket},
	}
	for _, c := range cases {
		res := run(t, g, 0, Options{Threads: c.threads, Machine: c.machine})
		if res.Algorithm != c.want {
			t.Errorf("auto(threads=%d, %s) ran %v, want %v", c.threads, c.machine.Name, res.Algorithm, c.want)
		}
	}
}

func TestResultMetadata(t *testing.T) {
	g := must(gen.Uniform(500, 4, 8))
	res := run(t, g, 3, Options{Algorithm: AlgMultiSocket, Threads: 6, Machine: topology.NehalemEP})
	if res.Root != 3 {
		t.Errorf("Root = %d, want 3", res.Root)
	}
	if res.Threads != 6 {
		t.Errorf("Threads = %d, want 6", res.Threads)
	}
	if res.Algorithm != AlgMultiSocket {
		t.Errorf("Algorithm = %v", res.Algorithm)
	}
	if res.Duration <= 0 {
		t.Error("Duration not positive")
	}
	if res.EdgesPerSecond() <= 0 {
		t.Error("EdgesPerSecond not positive")
	}
}

func TestEdgesPerSecondZeroDuration(t *testing.T) {
	r := &Result{EdgesTraversed: 100}
	if r.EdgesPerSecond() != 0 {
		t.Error("zero duration should yield 0 rate")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range append([]Algorithm{AlgAuto}, allAlgorithms...) {
		if a.String() == "" {
			t.Errorf("empty String for %d", int(a))
		}
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Errorf("unknown algorithm String = %q", Algorithm(42).String())
	}
}

func TestMultiEdgesAndSelfLoopsAllTiers(t *testing.T) {
	// Generators emit multi-edges and self-loops; every tier must cope.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3}, {Src: 3, Dst: 3},
	}
	g := must(graph.FromEdges(4, edges))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for _, alg := range allAlgorithms[1:] {
		res := run(t, g, 0, Options{Algorithm: alg, Threads: 4, Machine: topology.NehalemEP})
		validate(t, g, res)
		if res.Reached != ref.Reached || res.EdgesTraversed != ref.EdgesTraversed {
			t.Errorf("%v: Reached=%d/%d Edges=%d/%d", alg, res.Reached, ref.Reached,
				res.EdgesTraversed, ref.EdgesTraversed)
		}
	}
}

func TestRepeatedRunsIndependent(t *testing.T) {
	// Two BFS runs on the same graph must not share state.
	g := must(gen.Uniform(1000, 8, 10))
	a := run(t, g, 0, Options{Algorithm: AlgMultiSocket, Threads: 8, Machine: topology.NehalemEP})
	b := run(t, g, 0, Options{Algorithm: AlgMultiSocket, Threads: 8, Machine: topology.NehalemEP})
	if a.Reached != b.Reached || a.EdgesTraversed != b.EdgesTraversed || a.Levels != b.Levels {
		t.Errorf("repeated runs differ: %+v vs %+v", a, b)
	}
	validate(t, g, b)
}

func TestValidateTreeCatchesCorruption(t *testing.T) {
	g := must(gen.Uniform(200, 6, 11))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})

	// Corrupt: fake edge parent.
	bad := append([]uint32(nil), res.Parents...)
	for v := 1; v < len(bad); v++ {
		if bad[v] != NoParent && bad[v] != uint32(v) {
			// Point v at a vertex that (almost surely) has no edge to it.
			bad[v] = uint32(v) // self-parent on non-root
			if err := ValidateTree(g, 0, bad); err == nil {
				t.Error("self-parent on non-root not caught")
			}
			break
		}
	}

	// Corrupt: mark a reached vertex unreached.
	bad2 := append([]uint32(nil), res.Parents...)
	for v := 1; v < len(bad2); v++ {
		if bad2[v] != NoParent {
			bad2[v] = NoParent
			break
		}
	}
	if err := ValidateTree(g, 0, bad2); err == nil {
		t.Error("missing reached vertex not caught")
	}

	// Corrupt: wrong root parent.
	bad3 := append([]uint32(nil), res.Parents...)
	bad3[0] = 1
	if err := ValidateTree(g, 0, bad3); err == nil {
		t.Error("non-self root parent not caught")
	}

	// Wrong length.
	if err := ValidateTree(g, 0, res.Parents[:10]); err == nil {
		t.Error("short parents not caught")
	}
}

func TestValidateTreeCatchesNonBFSTree(t *testing.T) {
	// A valid spanning tree that is not breadth-first: in the diamond
	// 0->1, 0->2, 1->3, 2->3 plus 0->3, parent[3]=1 gives depth 2 but
	// dist is 1.
	g := must(graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 0, Dst: 3},
	}))
	parents := []uint32{0, 0, 0, 1}
	if err := ValidateTree(g, 0, parents); err == nil {
		t.Error("non-BFS spanning tree accepted")
	}
	// The BFS tree is accepted.
	parents[3] = 0
	if err := ValidateTree(g, 0, parents); err != nil {
		t.Errorf("true BFS tree rejected: %v", err)
	}
}

func TestTreeDepths(t *testing.T) {
	g := must(gen.BinaryTree(4))
	res := run(t, g, 0, Options{Algorithm: AlgSequential})
	depths := TreeDepths(res.Parents, 0)
	if depths[0] != 0 {
		t.Errorf("root depth = %d", depths[0])
	}
	if depths[1] != 1 || depths[2] != 1 {
		t.Errorf("level-1 depths = %d, %d", depths[1], depths[2])
	}
	last := len(depths) - 1
	if depths[last] != 4 {
		t.Errorf("leaf depth = %d, want 4", depths[last])
	}
}

func TestTreeDepthsUnreached(t *testing.T) {
	g := must(gen.Chain(6))
	res := run(t, g, 3, Options{Algorithm: AlgSequential})
	depths := TreeDepths(res.Parents, 3)
	for v := 0; v < 3; v++ {
		if depths[v] != NoDepth {
			t.Errorf("unreached vertex %d has depth %d", v, depths[v])
		}
	}
	if depths[5] != 2 {
		t.Errorf("depth[5] = %d, want 2", depths[5])
	}
}

func TestTreeDepthsEmpty(t *testing.T) {
	if d := TreeDepths(nil, 0); len(d) != 0 {
		t.Errorf("TreeDepths(nil) = %v", d)
	}
}

func TestBatchSizeVariants(t *testing.T) {
	// Tiny and large batch/chunk sizes must not change results.
	g := must(gen.RMAT(10, 8192, gen.GTgraphDefaults, 12))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for _, batch := range []int{1, 2, 7, 1024} {
		res := run(t, g, 0, Options{
			Algorithm: AlgMultiSocket,
			Threads:   8,
			Machine:   topology.NehalemEP,
			BatchSize: batch,
			ChunkSize: batch,
		})
		validate(t, g, res)
		if res.Reached != ref.Reached {
			t.Errorf("batch=%d: Reached=%d, want %d", batch, res.Reached, ref.Reached)
		}
	}
}

func TestRemoteSendsOnlyAcrossSockets(t *testing.T) {
	g := must(gen.Uniform(4000, 8, 13))
	// Single socket: no remote sends.
	res := run(t, g, 0, Options{
		Algorithm:  AlgMultiSocket,
		Threads:    4,
		Machine:    topology.Generic(1, 4, 1),
		Instrument: true,
	})
	var sends int64
	for _, ls := range res.PerLevel {
		sends += ls.RemoteSends
	}
	if sends != 0 {
		t.Errorf("single-socket multi-socket run sent %d remote tuples", sends)
	}
	// Two sockets: roughly half the edges lead to the other socket.
	res2 := run(t, g, 0, Options{
		Algorithm:  AlgMultiSocket,
		Threads:    8,
		Machine:    topology.NehalemEP,
		Instrument: true,
	})
	var sends2 int64
	for _, ls := range res2.PerLevel {
		sends2 += ls.RemoteSends
	}
	if sends2 == 0 {
		t.Error("two-socket run sent no remote tuples")
	}
	frac := float64(sends2) / float64(res2.EdgesTraversed)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("remote fraction = %.2f, want ~0.5 for a uniform graph over 2 sockets", frac)
	}
}

func TestPinThreadsOption(t *testing.T) {
	// Pinning is best-effort; correctness must be unaffected either way.
	g := must(gen.Uniform(3000, 8, 25))
	ref := run(t, g, 0, Options{Algorithm: AlgSequential})
	for _, alg := range []Algorithm{AlgParallelSimple, AlgSingleSocket, AlgMultiSocket, AlgDirectionOptimizing} {
		res := run(t, g, 0, Options{
			Algorithm:  alg,
			Threads:    4,
			Machine:    topology.NehalemEP,
			PinThreads: true,
		})
		validate(t, g, res)
		if res.Reached != ref.Reached {
			t.Errorf("%v pinned: Reached = %d, want %d", alg, res.Reached, ref.Reached)
		}
	}
}
