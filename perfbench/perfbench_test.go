package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mcbfs"
	"mcbfs/internal/rng"
)

// queueBFS is the textbook BFS the bit-parallel reference is checked
// against.
func queueBFS(g *refGraph, root mcbfs.Vertex) (depth []int, ans refAnswer) {
	depth = make([]int, g.n)
	for i := range depth {
		depth[i] = -1
	}
	depth[root] = 0
	queue := []mcbfs.Vertex{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ans.reached++
		ans.edges += g.degree(int(v))
		ans.levels = max(ans.levels, depth[v]+1)
		for _, p := range g.parts {
			for _, u := range p.tgts[p.offs[v]:p.offs[v+1]] {
				if depth[u] < 0 {
					depth[u] = depth[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return depth, ans
}

func smallGraph(t *testing.T, scale int, seed uint64) (*mcbfs.Graph, *input) {
	t.Helper()
	in := genRMAT(scale, 8, seed)
	g, err := mcbfs.NewGraphFromArrays(in.n, in.srcs, in.dsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyGraph(g, in.fp); err != nil {
		t.Fatal(err)
	}
	return g, in
}

func TestReferenceMatchesQueueBFS(t *testing.T) {
	g, in := smallGraph(t, 10, 3)
	extra := randomEdges(in.n, 300, rng.New(9))
	ref := &refGraph{n: in.n, parts: []csr{systemCSR(g), buildCSR(in.n, extra)}}
	roots := drawRoots(g.Offsets(), 70, 5)
	for workers := 1; workers <= 3; workers++ {
		checkReference(t, ref, roots, newRefSearch(ref, workers))
	}
}

func checkReference(t *testing.T, ref *refGraph, roots []mcbfs.Vertex, r *refSearch) {
	t.Helper()
	depth := newDepthTable(ref.n, 64)
	got := r.run(roots[:64], depth)
	all := r.answerAll(roots)
	for l, root := range roots {
		wantDepth, want := queueBFS(ref, root)
		if all[l] != want {
			t.Fatalf("root %d: answerAll %+v, queue BFS %+v", root, all[l], want)
		}
		if l >= 64 {
			continue
		}
		if got[l] != want {
			t.Fatalf("root %d: reference %+v, queue BFS %+v", root, got[l], want)
		}
		for v, d := range wantDepth {
			if got := depth.at(l, v); (d < 0 && got != unreached) || (d >= 0 && int(got) != d) {
				t.Fatalf("root %d vertex %d: depth %d, queue BFS %d", root, v, got, d)
			}
		}
	}
}

func TestVerifyGraphDetectsAMissingEdge(t *testing.T) {
	_, in := smallGraph(t, 8, 4)
	g, err := mcbfs.NewGraphFromArrays(in.n, in.srcs[1:], in.dsts[1:])
	if err != nil {
		t.Fatal(err)
	}
	if verifyGraph(g, in.fp) == nil {
		t.Fatal("a graph missing one edge passed verification")
	}
	in.srcs[0] = (in.srcs[0] + 1) % mcbfs.Vertex(in.n)
	g, err = mcbfs.NewGraphFromArrays(in.n, in.srcs, in.dsts)
	if err != nil {
		t.Fatal(err)
	}
	if verifyGraph(g, in.fp) == nil {
		t.Fatal("a graph with one altered edge passed verification")
	}
}

// TestCorruptedTreeFailsRun feeds the checker a real answer, then the
// same answer with one parent pointer moved, and expects the second to
// fail the run.
func TestCorruptedTreeFailsRun(t *testing.T) {
	g, in := smallGraph(t, 10, 6)
	ch := newChecker(&refGraph{n: in.n, parts: []csr{systemCSR(g)}})
	b, err := ch.block(newRootSource(g.Offsets(), 7), 4, newDepthTable(in.n, 64))
	if err != nil {
		t.Fatal(err)
	}
	s, err := mcbfs.NewSearcher(g, tierOptions("single-socket", nil, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.BFS(b.roots[0])
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	o.answered++
	ch.checkSearch(b, 0, res, o)
	if !o.correct() {
		t.Fatalf("a correct answer failed: %v", o.notes)
	}
	// Re-parent a vertex at depth ≥ 2 onto the root: same reached count
	// and levels, but not a BFS tree.
	for v := range in.n {
		if d := b.depth.at(0, v); d >= 2 && d != unreached {
			res.Parents[v] = b.roots[0]
			break
		}
	}
	o.answered++
	ch.checkSearch(b, 0, res, o)
	if o.correct() || o.wrong != 1 {
		t.Fatalf("a corrupted tree passed: wrong=%d", o.wrong)
	}
}

// servedRecords answers 100 closed-loop queries from a real Pool.
func servedRecords(t *testing.T) (*refGraph, []served) {
	t.Helper()
	g, in := smallGraph(t, 10, 8)
	pool, err := mcbfs.NewPool(g, mcbfs.PoolOptions{Search: mcbfs.Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	roots := drawRoots(g.Offsets(), 100, 9)
	records := closedLoop(pool, roots, 2, time.Minute, 0, nil)
	if len(records) != len(roots) {
		t.Fatalf("%d of %d queries answered", len(records), len(roots))
	}
	return &refGraph{n: in.n, parts: []csr{systemCSR(g)}}, records
}

// TestCorruptedServedAnswerFailsRun feeds the serving checker answers
// from a real Pool with one reached count altered.
func TestCorruptedServedAnswerFailsRun(t *testing.T) {
	base, records := servedRecords(t)
	spec := serveSpec{limit: time.Minute}
	o := newOutcome()
	scoreServed(spec, openResult{}, records, &mcbfs.Metrics{}, o)
	checkServed(base, nil, records, o)
	if !o.correct() || o.checked != int64(len(records)) {
		t.Fatalf("correct answers failed: %v", o.notes)
	}
	records[17].reached++
	o = newOutcome()
	scoreServed(spec, openResult{}, records, &mcbfs.Metrics{}, o)
	checkServed(base, nil, records, o)
	if o.correct() || o.wrong != 1 {
		t.Fatalf("a corrupted answer passed: wrong=%d", o.wrong)
	}
}

// TestUncheckedAnswerFailsRun scores answers of which the checker saw
// only some, and expects the run to fail with checked_frac below 1.
func TestUncheckedAnswerFailsRun(t *testing.T) {
	base, records := servedRecords(t)
	o := newOutcome()
	scoreServed(serveSpec{limit: time.Minute}, openResult{}, records, &mcbfs.Metrics{}, o)
	checkServed(base, nil, records[:90], o)
	o.finish()
	if o.correct() || o.values["bench.checked_frac"] != 0.9 {
		t.Fatalf("10 unchecked answers passed: checked_frac %v", o.values["bench.checked_frac"])
	}
}

// TestRootSourceHandsOutEachRootOnce takes every root of a graph in
// pieces and expects each non-isolated vertex exactly once, then an
// error.
func TestRootSourceHandsOutEachRootOnce(t *testing.T) {
	g, _ := smallGraph(t, 10, 5)
	src := newRootSource(g.Offsets(), 11)
	seen := map[mcbfs.Vertex]bool{}
	for len(src.rest()) > 0 {
		k := min(64, len(src.rest()))
		roots, err := src.take(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range roots {
			if seen[r] || g.Degree(r) == 0 {
				t.Fatalf("root %d handed out twice or isolated", r)
			}
			seen[r] = true
		}
	}
	if _, err := src.take(1); err == nil {
		t.Fatal("an exhausted source handed out a root")
	}
	for v := range g.NumVertices() {
		if g.Degree(mcbfs.Vertex(v)) > 0 && !seen[mcbfs.Vertex(v)] {
			t.Fatalf("vertex %d never handed out", v)
		}
	}
}

// TestServeIngestChecksEachEpoch serves queries beside the writer on a
// small graph and expects every answer to match the epoch it saw.
func TestServeIngestChecksEachEpoch(t *testing.T) {
	spec := serveSpecs["serve-ingest"]
	spec.scale, spec.rate, spec.setupReps = 12, 2000, 2
	spec.ingestPeriod, spec.ingestPairs = 20*time.Millisecond, 200
	o := newOutcome()
	if err := runServe(spec, runConfig{seed: 3, seconds: 0.5}, o, newTracer()); err != nil {
		t.Fatal(err)
	}
	o.finish()
	if !o.correct() || o.wrong != 0 {
		t.Fatalf("serve-ingest run failed: %v", o.notes)
	}
	if o.values["update_visible_ms"] <= 0 || o.values["capacity_qps"] <= 0 {
		t.Fatalf("missing serving metrics: %v", o.values)
	}
}

func TestTraverseSmall(t *testing.T) {
	spec := traverseDefault
	spec.scale, spec.tierSlice = 12, time.Millisecond
	o := newOutcome()
	if err := runTraverse(spec, runConfig{seed: 4, seconds: 0.5, trace: true}, o, newTracer()); err != nil {
		t.Fatal(err)
	}
	o.finish()
	if !o.correct() {
		t.Fatalf("traverse run failed: %v", o.notes)
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		// traverse bypasses the pool, ordering and swap layers.
		_, ok := o.values[d.name]
		if !ok && !strings.HasPrefix(d.name, "pool.") && !strings.HasPrefix(d.name, "swap.") &&
			d.name != "graph.reorder_s" && d.name != "bench.lateness_p99_ms" {
			t.Errorf("traverse did not report %s", d.name)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the
// program's metric tables in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	for _, tc := range []struct {
		label string
		json  []def
		prog  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", tc.label, len(tc.json), len(tc.prog))
			continue
		}
		for i, d := range tc.prog {
			if j := tc.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", tc.label, i, j, d)
			}
		}
	}
}
