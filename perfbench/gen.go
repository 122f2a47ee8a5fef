package main

import (
	"fmt"
	"runtime"
	"sync"

	"mcbfs"
	"mcbfs/internal/rng"
)

// input is one generated graph as the edge arrays a caller hands to
// mcbfs.NewGraphFromArrays, plus its fingerprint. Generating it is the
// benchmark's own work and is never timed.
type input struct {
	n          int
	srcs, dsts []mcbfs.Vertex
	fp         fingerprint
}

// fingerprint identifies an input graph in every record: vertex count,
// directed edge count and an order-independent checksum of the edge
// multiset. The same checksum, recomputed over the built CSR, verifies
// the graph layer's output before the reference BFS relies on it.
type fingerprint struct {
	N        int    `json:"n"`
	M        int64  `json:"m"`
	Checksum uint64 `json:"checksum"`
}

// edgeHash mixes one directed edge into 64 bits (splitmix64 finalizer),
// so summing hashes gives a multiset checksum that ignores edge order.
func edgeHash(u, v mcbfs.Vertex) uint64 {
	z := uint64(u)<<32 | uint64(v)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func arraysChecksum(srcs, dsts []mcbfs.Vertex) uint64 {
	var sum uint64
	for i := range srcs {
		sum += edgeHash(srcs[i], dsts[i])
	}
	return sum
}

// genShards fixes how the edge range is split across RNG streams, so
// the generated graph depends only on (scale, edgeFactor, seed).
const genShards = 16

// genRMAT generates an undirected R-MAT graph with the Graph500
// parameters (A, B, C, D) = (0.57, 0.19, 0.19, 0.05): edgeFactor·2^scale
// sampled edges, each stored in both directions, with vertex labels
// scrambled by a seeded permutation as the Graph500 generator does, so
// that hubs are not clustered at low ids. Self-loops and duplicates are
// kept.
func genRMAT(scale, edgeFactor int, seed uint64) *input {
	n := 1 << scale
	m := int64(n) * int64(edgeFactor)
	srcs := make([]mcbfs.Vertex, 2*m)
	dsts := make([]mcbfs.Vertex, 2*m)

	base := rng.New(seed)
	perm := make([]uint32, n)
	base.Perm(perm)
	streams := make([]*rng.Xoshiro256, genShards)
	for i := range streams {
		streams[i] = base.Split()
	}
	// Quadrant thresholds on a 16-bit draw: one 64-bit random word
	// serves four levels of the descent.
	const (
		tA  = 37355 // 0.57·65536
		tAB = 49807 // 0.76·65536
		tC  = 62259 // 0.95·65536
	)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for s := 0; s < genShards; s++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := streams[s]
			lo, hi := m*int64(s)/genShards, m*int64(s+1)/genShards
			for i := lo; i < hi; i++ {
				var u, v uint32
				var word uint64
				for bit := 0; bit < scale; bit++ {
					if bit%4 == 0 {
						word = r.Uint64()
					}
					x := word & 0xffff
					word >>= 16
					// Quadrant A sets neither bit, B sets v's, C sets
					// u's, D sets both; computed without branches.
					lower, upper := b2u(x >= tAB), b2u(x >= tC)
					u |= lower << bit
					v |= (b2u(x >= tA) ^ lower | upper) << bit
				}
				pu, pv := mcbfs.Vertex(perm[u]), mcbfs.Vertex(perm[v])
				srcs[i], dsts[i] = pu, pv
				srcs[m+i], dsts[m+i] = pv, pu
			}
		}(s)
	}
	wg.Wait()
	return &input{n: n, srcs: srcs, dsts: dsts,
		fp: fingerprint{N: n, M: 2 * m, Checksum: arraysChecksum(srcs, dsts)}}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// drawRoots returns up to count distinct vertices with at least one
// edge, in a seeded random order. It returns fewer when the graph has
// fewer such vertices.
func drawRoots(offs []int64, count int, seed uint64) []mcbfs.Vertex {
	var roots []mcbfs.Vertex
	for v := 0; v+1 < len(offs); v++ {
		if offs[v+1] > offs[v] {
			roots = append(roots, mcbfs.Vertex(v))
		}
	}
	r := rng.New(seed)
	for i := len(roots) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		roots[i], roots[j] = roots[j], roots[i]
	}
	return roots[:min(count, len(roots))]
}

// rootSource hands out one run's roots: every vertex with at least one
// edge, in a seeded random order, each at most once, so that no root is
// searched twice in a run.
type rootSource struct {
	roots []mcbfs.Vertex
	next  int
}

func newRootSource(offs []int64, seed uint64) *rootSource {
	return &rootSource{roots: drawRoots(offs, len(offs), seed)}
}

// take hands out the next k roots; it fails when fewer are left.
func (s *rootSource) take(k int) ([]mcbfs.Vertex, error) {
	if left := len(s.roots) - s.next; k > left {
		return nil, fmt.Errorf("out of distinct roots: %d wanted, %d of %d left", k, left, len(s.roots))
	}
	s.next += k
	return s.roots[s.next-k : s.next], nil
}

// rest is every root not yet handed out; a caller that uses a prefix of
// it hands that prefix out with skip.
func (s *rootSource) rest() []mcbfs.Vertex { return s.roots[s.next:] }

func (s *rootSource) skip(k int) { s.next += k }

// randomEdges draws count uniformly random undirected edges (both
// directions) over n vertices: one serve-ingest write batch.
func randomEdges(n, count int, r *rng.Xoshiro256) []mcbfs.Edge {
	out := make([]mcbfs.Edge, 0, 2*count)
	for i := 0; i < count; i++ {
		u, v := mcbfs.Vertex(r.Intn(n)), mcbfs.Vertex(r.Intn(n))
		out = append(out, mcbfs.Edge{Src: u, Dst: v}, mcbfs.Edge{Src: v, Dst: u})
	}
	return out
}
