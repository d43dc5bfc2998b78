// Package graph provides the weighted-graph substrate of the library:
// an immutable compressed-sparse-row (CSR) adjacency structure, exact
// shortest-path algorithms (Dijkstra on a non-boxing 4-ary index heap,
// Bellman-Ford, APSP by repeated squaring over the min-plus semiring),
// shortest-path-diameter computation, and the graph generators used by the
// experiment suite.
//
// # Builder/freeze lifecycle
//
// Graphs are built in two phases. A Builder collects edges (duplicates and
// reversed insertions welcome) in O(1) amortised per edge; Freeze then
// sorts, collapses parallel edges to the lightest copy, and lays the arcs
// out in one flat array in O(n + m) total:
//
//	b := graph.NewBuilder(n)
//	b.Add(u, v, w)        // any order, duplicates allowed
//	g := b.Freeze()       // immutable from here on
//
// A frozen Graph stores one arc slice shared by all nodes: Neighbors(v)
// returns the subslice arcs[rowStart[v]:rowStart[v+1]], sorted by target.
// Nothing can mutate a frozen graph, so any number of goroutines — in
// particular the K concurrent tree samplers of the FRT Embedder — can share
// one Graph with zero synchronisation and zero copies, and every traversal
// walks a contiguous, cache-friendly array instead of chasing per-node
// slice headers. HasEdge and Weight are binary searches; Edges is a single
// linear pass (the arcs are already sorted).
//
// Following §1.2 of Friedrichs & Lenzen, graphs are undirected, connected,
// loop-free, with positive edge weights whose maximum/minimum ratio is
// polynomially bounded.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Node identifies a vertex; nodes are 0-based dense integers.
type Node = semiring.NodeID

// Arc is one directed half of an undirected edge in an adjacency row.
type Arc struct {
	To     Node
	Weight float64
}

// Edge is an undirected weighted edge with U < V.
type Edge struct {
	U, V   Node
	Weight float64
}

// Graph is an undirected weighted graph in compressed-sparse-row form. It
// is immutable: build one with NewBuilder/Freeze (or New for an edgeless
// graph) and share it freely across goroutines.
type Graph struct {
	// rowStart has length n+1; the arcs leaving v occupy
	// arcs[rowStart[v]:rowStart[v+1]], sorted by To.
	rowStart []int32
	// arcs is the flat arc array, length 2m.
	arcs []Arc
	m    int
	// symmetric records whether every arc u→v has a reverse arc v→u of
	// equal weight; Transpose/InNeighbors then answer in-neighbor queries
	// without any reversed copy. Builder-frozen graphs are symmetric by
	// construction (both halves of each undirected edge are inserted, and
	// dedup keeps the same lightest weight in both directions) — the
	// property tests assert this against detectSymmetric, so a directed
	// construction path added later cannot silently inherit the flag.
	symmetric bool
	// transpose caches the lazily built reversed-CSR view of an asymmetric
	// graph (nil until the first Transpose call; unused when symmetric).
	transpose atomic.Pointer[Graph]
}

// New returns an immutable edgeless graph on n nodes. To build a graph with
// edges, use NewBuilder.
func New(n int) *Graph {
	return &Graph{rowStart: make([]int32, n+1), symmetric: true}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.rowStart) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns the arcs leaving v as a subslice of the graph's flat
// arc array, sorted by target. The caller must not modify it.
func (g *Graph) Neighbors(v Node) []Arc { return g.arcs[g.rowStart[v]:g.rowStart[v+1]] }

// Degree returns the degree of v.
func (g *Graph) Degree(v Node) int { return int(g.rowStart[v+1] - g.rowStart[v]) }

// NeighborIndex returns the index i such that Neighbors(v)[i].To == w, or
// -1 if {v,w} is not an edge, by binary search over the sorted row.
func (g *Graph) NeighborIndex(v, w Node) int {
	row := g.Neighbors(v)
	i := sort.Search(len(row), func(i int) bool { return row[i].To >= w })
	if i < len(row) && row[i].To == w {
		return i
	}
	return -1
}

// HasEdge reports whether {u, v} is an edge and returns its weight. It is a
// binary search over u's sorted adjacency row.
func (g *Graph) HasEdge(u, v Node) (float64, bool) {
	if i := g.NeighborIndex(u, v); i >= 0 {
		return g.Neighbors(u)[i].Weight, true
	}
	return semiring.Inf, false
}

// Weight returns ω(u,v) in the convention of §1.2: 0 for u == v, the edge
// weight if {u,v} ∈ E, and ∞ otherwise.
func (g *Graph) Weight(u, v Node) float64 {
	if u == v {
		return 0
	}
	w, _ := g.HasEdge(u, v)
	return w
}

// Edges returns all undirected edges with U < V, sorted by (U, V). Since
// the CSR rows are sorted by target, this is a single linear pass with one
// allocation and no per-call sort.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Neighbors(Node(u)) {
			if Node(u) < a.To {
				out = append(out, Edge{U: Node(u), V: a.To, Weight: a.Weight})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g: two flat copies. Since graphs are
// immutable, sharing g itself is equally safe; Clone exists for callers
// that want independent backing arrays.
func (g *Graph) Clone() *Graph {
	h := &Graph{
		rowStart:  make([]int32, len(g.rowStart)),
		arcs:      make([]Arc, len(g.arcs)),
		m:         g.m,
		symmetric: g.symmetric,
	}
	copy(h.rowStart, g.rowStart)
	copy(h.arcs, g.arcs)
	return h
}

// Builder returns a new Builder pre-seeded with g's edges — the idiom for
// "g plus extra edges" now that graphs are immutable (hop sets, overlays,
// the live-update extend-and-refreeze loop). The edge slice is allocated
// once with headroom for the edges the caller is about to Add and filled
// straight off the CSR rows, so the hot update path pays neither the
// intermediate Edges() allocation nor O(m) append regrowth copies.
func (g *Graph) Builder() *Builder {
	b := NewBuilder(g.N())
	b.edges = make([]Edge, 0, g.m+g.m/8+16)
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Neighbors(Node(u)) {
			if Node(u) < a.To {
				b.edges = append(b.edges, Edge{U: Node(u), V: a.To, Weight: a.Weight})
			}
		}
	}
	return b
}

// Symmetric reports whether every arc u→v is matched by a reverse arc v→u
// of equal weight. Builder-frozen (undirected) graphs always are.
func (g *Graph) Symmetric() bool { return g.symmetric }

// Transpose returns the graph with every arc reversed. For a symmetric
// graph — the invariant every Builder-frozen graph satisfies — the arc set
// is its own reversal and Transpose returns g itself, so in-neighbor queries
// cost nothing extra. Otherwise the reversed CSR is built once, on first
// use, and cached; the transpose's own Transpose points back at g.
func (g *Graph) Transpose() *Graph {
	if g.symmetric {
		return g
	}
	if t := g.transpose.Load(); t != nil {
		return t
	}
	t := g.buildTranspose()
	t.transpose.Store(g)
	// Another goroutine may have raced the build; keep whichever view was
	// published first so every caller shares one transpose.
	g.transpose.CompareAndSwap(nil, t)
	return g.transpose.Load()
}

// InNeighbors returns the arcs entering v: one Arc{To: w, Weight: ω(w,v)}
// per arc w→v, sorted by source. It is the row of v in the transpose view —
// identical to Neighbors(v) on symmetric graphs — and is what the frontier
// engine walks to find the nodes whose next state a change at v can affect.
// The caller must not modify the returned slice.
func (g *Graph) InNeighbors(v Node) []Arc { return g.Transpose().Neighbors(v) }

// buildTranspose reverses the arc array with a stable counting scatter by
// target; stability keeps every transposed row sorted by source, preserving
// the CSR ordering invariant.
func (g *Graph) buildTranspose() *Graph {
	n := g.N()
	cnt := make([]int32, n+1)
	for _, a := range g.arcs {
		cnt[a.To+1]++
	}
	for v := 0; v < n; v++ {
		cnt[v+1] += cnt[v]
	}
	rowStart := append([]int32(nil), cnt...)
	arcs := make([]Arc, len(g.arcs))
	next := cnt[:n]
	for u := 0; u < n; u++ {
		for _, a := range g.arcs[g.rowStart[u]:g.rowStart[u+1]] {
			arcs[next[a.To]] = Arc{To: Node(u), Weight: a.Weight}
			next[a.To]++
		}
	}
	return &Graph{rowStart: rowStart, arcs: arcs, m: g.m}
}

// detectSymmetric reports whether every arc has an equal-weight reverse
// arc, by binary search over the target's sorted row — O(m log Δ). It is
// the reference predicate behind the symmetric flag: Freeze sets the flag
// by construction, and the transpose property tests assert the two agree.
func detectSymmetric(rowStart []int32, arcs []Arc, n int) bool {
	for u := 0; u < n; u++ {
		for _, a := range arcs[rowStart[u]:rowStart[u+1]] {
			row := arcs[rowStart[a.To]:rowStart[a.To+1]]
			i := sort.Search(len(row), func(i int) bool { return row[i].To >= Node(u) })
			if i >= len(row) || row[i].To != Node(u) || row[i].Weight != a.Weight {
				return false
			}
		}
	}
	return true
}

// WeightRange returns the minimum and maximum edge weight. It panics on an
// edgeless graph.
func (g *Graph) WeightRange() (min, max float64) {
	if g.m == 0 {
		panic("graph: WeightRange on edgeless graph")
	}
	min, max = semiring.Inf, 0
	for _, a := range g.arcs {
		if a.Weight < min {
			min = a.Weight
		}
		if a.Weight > max {
			max = a.Weight
		}
	}
	return min, max
}

// Connected reports whether g is connected (the standing assumption of
// §1.2).
func (g *Graph) Connected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []Node{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.Neighbors(v) {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				stack = append(stack, a.To)
			}
		}
	}
	return count == n
}

// Builder accumulates edges for a Graph. Add appends in O(1) amortised —
// there is no per-insert duplicate scan — and Freeze produces the immutable
// CSR graph in O(n + m). A Builder may keep accumulating after a Freeze;
// each Freeze snapshots the edges added so far.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// N returns the number of nodes of the graph under construction.
func (b *Builder) N() int { return b.n }

// Add records the undirected edge {u, v} with weight w and returns the
// Builder for chaining. It panics on loops, non-positive weights, or
// out-of-range endpoints. Parallel edges are allowed and collapsed to the
// lightest copy by Freeze (the only one shortest-path algorithms can use).
func (b *Builder) Add(u, v Node, w float64) *Builder {
	if u == v {
		panic(fmt.Sprintf("graph: loop at node %d", u))
	}
	if !(w > 0) || semiring.IsInf(w) { // !(w > 0) also rejects NaN
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range n=%d", u, v, b.n))
	}
	b.edges = append(b.edges, Edge{U: u, V: v, Weight: w})
	return b
}

// halfArc is a directed arc with an explicit source, the unit of the
// Freeze radix scatter.
type halfArc struct {
	from, to Node
	w        float64
}

// maxFreezeEdges is the largest edge count Freeze can lay out: each edge
// becomes two directed halves and row offsets are int32, so the 2m arc
// indices must fit in [0, MaxInt32].
const maxFreezeEdges = math.MaxInt32 / 2

// checkArcCapacity returns an error when edges undirected edges would
// produce a directed-arc count outside the int32 CSR offset range. It is
// factored out of FreezeChecked so the overflow guard can be unit-tested
// with a mocked count instead of 2^31 real edges.
func checkArcCapacity(edges int) error {
	if edges > maxFreezeEdges {
		return fmt.Errorf("graph: %d edges produce %d directed arcs, exceeding the int32 CSR offset range", edges, 2*edges)
	}
	return nil
}

// freezeParallelMin is the directed-arc count below which the serial
// scatter wins: the parallel path pays per-worker count arrays and two
// barrier rounds, which only amortise on large arc arrays.
const freezeParallelMin = 1 << 17

// Freeze sorts and dedups the accumulated edges and returns the immutable
// CSR graph. Sorting is a two-pass stable counting scatter — bucket the 2m
// directed halves by target, then by source — which orders the arc array
// by (from, to) in O(m + n) with purely sequential writes and no
// comparator calls; a final in-place compaction collapses parallel edges
// to the lightest copy. Large inputs run the scatter in parallel
// (per-worker count arrays merged by prefix sums over contiguous edge
// chunks), producing a byte-identical graph at any par.MaxProcs. Freeze
// panics when the arc count overflows the int32 offset range; use
// FreezeChecked to get the error instead.
func (b *Builder) Freeze() *Graph {
	g, err := b.FreezeChecked()
	if err != nil {
		panic(err.Error())
	}
	return g
}

// FreezeChecked is Freeze returning an error instead of panicking when the
// accumulated edges exceed the int32 CSR offset capacity (≥ 2^30 edges).
// Callers ingesting externally sized inputs (file loaders, generators with
// user-chosen parameters) should prefer it over Freeze.
func (b *Builder) FreezeChecked() (*Graph, error) {
	if err := checkArcCapacity(len(b.edges)); err != nil {
		return nil, err
	}
	if 2*len(b.edges) >= freezeParallelMin && par.MaxProcs > 1 {
		return b.freezeParallel(), nil
	}
	return b.freezeSerial(), nil
}

// freezeSerial is the single-threaded reference layout, kept both as the
// small-input fast path and as the committed baseline the parallel scatter
// is benchmarked and differentially tested against.
func (b *Builder) freezeSerial() *Graph {
	n := b.n
	m2 := 2 * len(b.edges)
	// Pass 1: stable counting scatter by target.
	cnt := make([]int32, n+1)
	for _, e := range b.edges {
		cnt[e.U+1]++
		cnt[e.V+1]++
	}
	for v := 0; v < n; v++ {
		cnt[v+1] += cnt[v]
	}
	rowStart := append([]int32(nil), cnt...) // degree prefix sums, reused in pass 2
	byTo := make([]halfArc, m2)
	for _, e := range b.edges {
		byTo[cnt[e.V]] = halfArc{from: e.U, to: e.V, w: e.Weight}
		cnt[e.V]++
		byTo[cnt[e.U]] = halfArc{from: e.V, to: e.U, w: e.Weight}
		cnt[e.U]++
	}
	// Pass 2: stable counting scatter by source. Stability makes each row
	// sorted by target, so the arc array is ordered by (from, to).
	arcs := make([]Arc, m2)
	next := cnt[:n]
	copy(next, rowStart[:n])
	for _, h := range byTo {
		arcs[next[h.from]] = Arc{To: h.to, Weight: h.w}
		next[h.from]++
	}
	// Compact forward, keeping the lightest parallel edge. The write cursor
	// never passes the current row's start, so this is safe in place.
	finalRow := make([]int32, n+1)
	w := 0
	for v := 0; v < n; v++ {
		finalRow[v] = int32(w)
		last := Node(-1)
		for _, a := range arcs[rowStart[v]:rowStart[v+1]] {
			if a.To == last {
				if a.Weight < arcs[w-1].Weight {
					arcs[w-1] = a
				}
				continue
			}
			last = a.To
			arcs[w] = a
			w++
		}
	}
	finalRow[n] = int32(w)
	if w < m2 {
		// Duplicates were collapsed: re-slice to exact size so a long-lived
		// graph does not pin the oversized pre-dedup backing array.
		arcs = append(make([]Arc, 0, w), arcs[:w]...)
	}
	// Freeze output is symmetric by construction: both directed halves of
	// every edge are inserted, and the per-row dedup keeps the lightest of
	// the same parallel-weight multiset in each direction. The invariant is
	// asserted against detectSymmetric by the transpose property tests
	// rather than re-derived on every Freeze (an O(m log Δ) scan that would
	// tax all graph construction for a provable constant).
	return &Graph{rowStart: finalRow, arcs: arcs, m: w / 2, symmetric: true}
}

// freezeParallel is the multi-worker counting scatter. Each worker owns a
// contiguous chunk of the edge (then half-arc) stream and a private count
// array; a prefix sum across workers per bucket assigns each worker a
// disjoint write window positioned after every lower-indexed worker's
// items, which reproduces the serial stable order exactly — the frozen
// graph is byte-identical to freezeSerial's at any par.MaxProcs. The dedup
// compaction runs per row (each row's write region is disjoint), followed
// by a parallel gather into the exact-size arc array.
func (b *Builder) freezeParallel() *Graph {
	n := b.n
	mE := len(b.edges)
	m2 := 2 * mE
	procs := par.MaxProcs
	if procs > mE {
		procs = mE
	}

	// chunkOf splits a stream of k items into procs contiguous chunks.
	chunkOf := func(w, k int) (int, int) { return w * k / procs, (w + 1) * k / procs }

	// Per-worker count/cursor arrays, one bucket per node. The same backing
	// is reused across both scatter passes.
	cw := make([][]int32, procs)
	for w := range cw {
		cw[w] = make([]int32, n)
	}
	total := make([]int32, n)

	// countToOffsets turns the per-worker bucket counts in cw into absolute
	// write cursors: global degree prefix sums into rowStart, then an
	// exclusive scan across workers within each bucket.
	countToOffsets := func() []int32 {
		par.ForEachChunk(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				var s int32
				for w := 0; w < procs; w++ {
					s += cw[w][v]
				}
				total[v] = s
			}
		})
		rowStart := make([]int32, n+1)
		for v := 0; v < n; v++ {
			rowStart[v+1] = rowStart[v] + total[v]
		}
		par.ForEachChunk(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				run := rowStart[v]
				for w := 0; w < procs; w++ {
					c := cw[w][v]
					cw[w][v] = run
					run += c
				}
			}
		})
		return rowStart
	}

	// Pass 1: stable counting scatter of the 2m directed halves by target.
	var wg sync.WaitGroup
	runWorkers := func(body func(w int)) {
		wg.Add(procs)
		for w := 0; w < procs; w++ {
			go func(w int) {
				defer wg.Done()
				body(w)
			}(w)
		}
		wg.Wait()
	}
	runWorkers(func(w int) {
		lo, hi := chunkOf(w, mE)
		c := cw[w]
		for _, e := range b.edges[lo:hi] {
			c[e.U]++
			c[e.V]++
		}
	})
	rowStart := countToOffsets()
	byTo := make([]halfArc, m2)
	runWorkers(func(w int) {
		lo, hi := chunkOf(w, mE)
		next := cw[w]
		for _, e := range b.edges[lo:hi] {
			byTo[next[e.V]] = halfArc{from: e.U, to: e.V, w: e.Weight}
			next[e.V]++
			byTo[next[e.U]] = halfArc{from: e.V, to: e.U, w: e.Weight}
			next[e.U]++
		}
	})

	// Pass 2: stable counting scatter by source. Per-node half counts by
	// source equal the counts by target (each edge contributes one half from
	// and one half to each endpoint), so rowStart carries over; only the
	// per-worker splits are recounted over the byTo chunks.
	runWorkers(func(w int) {
		clear(cw[w])
		lo, hi := chunkOf(w, m2)
		c := cw[w]
		for i := lo; i < hi; i++ {
			c[byTo[i].from]++
		}
	})
	countToOffsets()
	arcs := make([]Arc, m2)
	runWorkers(func(w int) {
		lo, hi := chunkOf(w, m2)
		next := cw[w]
		for i := lo; i < hi; i++ {
			h := byTo[i]
			arcs[next[h.from]] = Arc{To: h.to, Weight: h.w}
			next[h.from]++
		}
	})

	// Per-row in-place dedup: within each row the write cursor trails the
	// read cursor, and rows are disjoint, so every row compacts to its own
	// start concurrently. kept[v] is reused from total.
	kept := total
	par.ForEachChunk(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := arcs[rowStart[v]:rowStart[v+1]]
			k := 0
			last := Node(-1)
			for _, a := range row {
				if a.To == last {
					if a.Weight < row[k-1].Weight {
						row[k-1] = a
					}
					continue
				}
				last = a.To
				row[k] = a
				k++
			}
			kept[v] = int32(k)
		}
	})
	finalRow := make([]int32, n+1)
	for v := 0; v < n; v++ {
		finalRow[v+1] = finalRow[v] + kept[v]
	}
	w := int(finalRow[n])
	if w < m2 {
		// Duplicates were collapsed: gather the compacted rows into an
		// exact-size array so the graph does not pin oversized backing.
		dense := make([]Arc, w)
		par.ForEachChunk(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				copy(dense[finalRow[v]:finalRow[v+1]], arcs[rowStart[v]:rowStart[v]+kept[v]])
			}
		})
		arcs = dense
	}
	return &Graph{rowStart: finalRow, arcs: arcs, m: w / 2, symmetric: true}
}
