package main

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"mcbfs"
)

// The reference side of every correctness check: a BFS the
// benchmark implements itself, run off the clock, against which every
// answer of the system under test is compared.

// csr is one adjacency in compressed-sparse-row form.
type csr struct {
	offs []int64
	tgts []mcbfs.Vertex
}

// refGraph is the graph the reference BFS walks: the union of its
// parts' adjacencies over n vertices. Part 0 is the system's CSR after
// verifyGraph has matched it against the generated edge arrays; under
// serve-ingest a second part holds the edges ingested so far, built by
// buildCSR. Every workload's graph is symmetric, so a vertex's
// adjacency is also its in-neighbour set, which checkTrees relies on.
type refGraph struct {
	n     int
	parts []csr
}

func systemCSR(g *mcbfs.Graph) csr { return csr{offs: g.Offsets(), tgts: g.Targets()} }

func (g *refGraph) degree(v int) int64 {
	var d int64
	for _, p := range g.parts {
		d += p.offs[v+1] - p.offs[v]
	}
	return d
}

// adjacent reports whether u appears in v's adjacency.
func (g *refGraph) adjacent(v int, u mcbfs.Vertex) bool {
	for _, p := range g.parts {
		for _, w := range p.tgts[p.offs[v]:p.offs[v+1]] {
			if w == u {
				return true
			}
		}
	}
	return false
}

// buildCSR groups edges by source with a counting sort.
func buildCSR(n int, edges []mcbfs.Edge) csr {
	offs := make([]int64, n+1)
	for _, e := range edges {
		offs[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	tgts := make([]mcbfs.Vertex, len(edges))
	fill := make([]int64, n)
	copy(fill, offs[:n])
	for _, e := range edges {
		tgts[fill[e.Src]] = e.Dst
		fill[e.Src]++
	}
	return csr{offs: offs, tgts: tgts}
}

// verifyGraph checks that the graph layer built exactly the generated
// edge multiset: same vertex and edge counts, same checksum.
func verifyGraph(g *mcbfs.Graph, fp fingerprint) error {
	if g.NumVertices() != fp.N || g.NumEdges() != fp.M {
		return fmt.Errorf("built graph has n=%d m=%d, input has n=%d m=%d",
			g.NumVertices(), g.NumEdges(), fp.N, fp.M)
	}
	offs, tgts := g.Offsets(), g.Targets()
	var sum uint64
	for v := 0; v < fp.N; v++ {
		for _, u := range tgts[offs[v]:offs[v+1]] {
			sum += edgeHash(mcbfs.Vertex(v), u)
		}
	}
	if sum != fp.Checksum {
		return fmt.Errorf("built graph's edge checksum %#x differs from the input's %#x", sum, fp.Checksum)
	}
	return nil
}

// refAnswer is what the reference says one search must return. edges is
// the reference component's edge count — the adjacency entries of every
// reached vertex — which is the tier-invariant TEPS numerator.
type refAnswer struct {
	reached int64
	levels  int
	edges   int64
}

// unreached marks a vertex a reference lane did not reach in its depth
// array.
const unreached = 255

// depthTable holds reference BFS depths of several lanes, vertex-major:
// all lanes' depths of one vertex share a cache line, and a batch's
// lanes often share a parent, so checking them touches few lines.
type depthTable struct {
	lanes int
	d     []uint8
}

func newDepthTable(n, lanes int) *depthTable {
	return &depthTable{lanes: lanes, d: make([]uint8, n*lanes)}
}

func (t *depthTable) at(l, v int) uint8 { return t.d[v*t.lanes+l] }

// refSearch runs the reference BFS up to 64 roots at a time: one bit
// per root in per-vertex words, advanced level by level over every
// vertex. Each level is split by vertex range across workers
// goroutines, which merge new lane bits with atomic ORs, so every
// lane's search stays level-synchronous. Independent of the library's
// engines.
type refSearch struct {
	g                 *refGraph
	workers           int
	seen, front, next []uint64
	partial           [][]refAnswer // per worker, per lane: one level's counts
}

func newRefSearch(g *refGraph, workers int) *refSearch {
	r := &refSearch{g: g, workers: workers,
		seen: make([]uint64, g.n), front: make([]uint64, g.n), next: make([]uint64, g.n)}
	for range r.workers {
		r.partial = append(r.partial, make([]refAnswer, 64))
	}
	return r
}

// parallel runs f on every worker's share of the vertex range.
func (r *refSearch) parallel(f func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w, r.g.n*w/r.workers, r.g.n*(w+1)/r.workers)
		}()
	}
	wg.Wait()
}

// run answers len(roots) ≤ 64 searches. When depth is non-nil, it
// receives every lane's BFS depths, unreached where unreachable; it
// must have at least len(roots) lanes.
func (r *refSearch) run(roots []mcbfs.Vertex, depth *depthTable) []refAnswer {
	if len(roots) > 64 {
		panic("perfbench: reference batch wider than 64")
	}
	clear(r.seen)
	clear(r.front)
	clear(r.next)
	if depth != nil {
		for i := range depth.d {
			depth.d[i] = unreached
		}
	}
	ans := make([]refAnswer, len(roots))
	for l, root := range roots {
		bit := uint64(1) << l
		r.seen[root] |= bit
		r.front[root] |= bit
		ans[l] = refAnswer{reached: 1, levels: 1, edges: r.g.degree(int(root))}
		if depth != nil {
			depth.d[int(root)*depth.lanes+l] = 0
		}
	}
	for d := 1; ; d++ {
		// Expand: every frontier vertex offers its lanes to its
		// neighbours; a lane bit new to a neighbour joins the next level.
		r.parallel(func(_, lo, hi int) {
			for v, f := range r.front[lo:hi] {
				if f == 0 {
					continue
				}
				v += lo
				for _, p := range r.g.parts {
					for _, u := range p.tgts[p.offs[v]:p.offs[v+1]] {
						if nb := f &^ atomic.LoadUint64(&r.seen[u]); nb != 0 {
							atomic.OrUint64(&r.seen[u], nb)
							atomic.OrUint64(&r.next[u], nb)
						}
					}
				}
			}
		})
		// Record the level per worker, and clear the spent frontier,
		// which becomes the next level's empty set.
		r.parallel(func(w, lo, hi int) {
			part := r.partial[w]
			clear(part)
			for v, x := range r.next[lo:hi] {
				v += lo
				r.front[v] = 0
				if x == 0 {
					continue
				}
				deg := r.g.degree(v)
				for ; x != 0; x &= x - 1 {
					l := bits.TrailingZeros64(x)
					part[l].reached++
					part[l].edges += deg
					if depth != nil {
						if d >= unreached {
							panic("perfbench: BFS depth beyond the reference's 8-bit depth arrays")
						}
						depth.d[v*depth.lanes+l] = uint8(d)
					}
				}
			}
		})
		grew := false
		for _, part := range r.partial {
			for l := range ans {
				if part[l].reached > 0 {
					grew = true
					ans[l].reached += part[l].reached
					ans[l].edges += part[l].edges
					ans[l].levels = d + 1
				}
			}
		}
		if !grew {
			return ans
		}
		r.front, r.next = r.next, r.front
	}
}

// answerAll computes reference answers for any number of roots, 64 per
// pass.
func (r *refSearch) answerAll(roots []mcbfs.Vertex) []refAnswer {
	out := make([]refAnswer, 0, len(roots))
	for i := 0; i < len(roots); i += 64 {
		out = append(out, r.run(roots[i:min(i+64, len(roots))], nil)...)
	}
	return out
}

// checkTrees validates full BFS trees against the reference depths of
// lanes first, first+1, … of depth, one per root: a vertex is in tree
// k exactly when the reference reaches it, the root is its own parent,
// and every other vertex's parent is adjacent to it and one level
// closer to the root. parent(k, v) reads tree k and must be safe for
// concurrent use; the vertex range is split across one goroutine per
// stamp, each stamp being n words of scratch.
func checkTrees(g *refGraph, depth *depthTable, first int, roots []mcbfs.Vertex, stamps [][]uint32,
	parent func(k, v int) uint32) error {
	errs := make([]error, len(stamps))
	var wg sync.WaitGroup
	for w, stamp := range stamps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := g.n*w/len(stamps), g.n*(w+1)/len(stamps)
			errs[w] = checkTreeRange(g, depth, first, roots, stamp, parent, lo, hi)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func checkTreeRange(g *refGraph, depth *depthTable, first int, roots []mcbfs.Vertex, stamp []uint32,
	parent func(k, v int) uint32, lo, hi int) error {
	for i := range stamp {
		stamp[i] = mcbfs.NoParent
	}
	for v := lo; v < hi; v++ {
		stamped := false
		for k, root := range roots {
			p, d := parent(k, v), depth.at(first+k, v)
			switch {
			case d == unreached && p == mcbfs.NoParent:
				continue
			case d == unreached:
				return fmt.Errorf("root %d: vertex %d has parent %d but is unreachable", root, v, p)
			case p == mcbfs.NoParent:
				return fmt.Errorf("root %d: vertex %d at depth %d is missing from the tree", root, v, d)
			case v == int(root):
				if p != root {
					return fmt.Errorf("root %d: root's parent is %d", root, p)
				}
				continue
			case int(p) >= g.n || depth.at(first+k, int(p)) != d-1:
				return fmt.Errorf("root %d: vertex %d at depth %d has parent %d not at depth %d", root, v, d, p, d-1)
			}
			if len(roots) == 1 {
				// One tree: scanning v's list for p reads memory in
				// order, where stamping would write at random.
				if !g.adjacent(v, p) {
					return fmt.Errorf("root %d: tree edge %d-%d is not in the graph", root, p, v)
				}
				continue
			}
			if !stamped {
				for _, pt := range g.parts {
					for _, u := range pt.tgts[pt.offs[v]:pt.offs[v+1]] {
						stamp[u] = uint32(v)
					}
				}
				stamped = true
			}
			if stamp[p] != uint32(v) {
				return fmt.Errorf("root %d: tree edge %d-%d is not in the graph", root, p, v)
			}
		}
	}
	return nil
}
