package graph

import (
	"container/heap"
	"testing"

	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func benchGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	return RandomConnected(n, m, 8, par.NewRNG(1))
}

// boxedItem/boxedPQ reproduce the seed implementation's container/heap +
// interface{} priority queue, kept here as the baseline the 4-ary index
// heap (Heap4) is benchmarked and differentially tested against.
type boxedItem struct {
	node Node
	dist float64
}

type boxedPQ []boxedItem

func (q boxedPQ) Len() int            { return len(q) }
func (q boxedPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q boxedPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *boxedPQ) Push(x interface{}) { *q = append(*q, x.(boxedItem)) }
func (q *boxedPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// boxedDijkstra is the seed Dijkstra (lazy-deletion binary heap with boxed
// entries), the before side of the heap benchmark.
func boxedDijkstra(g *Graph, source Node) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = semiring.Inf
	}
	dist[source] = 0
	done := make([]bool, n)
	q := boxedPQ{{node: source, dist: 0}}
	for len(q) > 0 {
		it := heap.Pop(&q).(boxedItem)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, a := range g.Neighbors(v) {
			if nd := dist[v] + a.Weight; nd < dist[a.To] {
				dist[a.To] = nd
				heap.Push(&q, boxedItem{node: a.To, dist: nd})
			}
		}
	}
	return dist
}

func BenchmarkHeapBoxedDijkstra(b *testing.B) {
	g := benchGraph(b, 1024, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boxedDijkstra(g, Node(i%g.N()))
	}
}

func BenchmarkHeap4Dijkstra(b *testing.B) {
	g := benchGraph(b, 1024, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, Node(i%g.N()))
	}
}

func BenchmarkBuild4096(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomConnected(4096, 65536, 8, par.NewRNG(1))
	}
}

// shuffledEdges4096 is a fixed edge list in random order, the input of the
// pure-construction benchmarks below.
func shuffledEdges4096(b *testing.B) []Edge {
	b.Helper()
	edges := RandomConnected(4096, 65536, 8, par.NewRNG(1)).Edges()
	rng := par.NewRNG(2)
	for i := len(edges) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}

// seedStyleBuild replicates the seed's mutable [][]Arc construction — an
// O(deg) duplicate scan per insert — as the before side of the
// construction benchmark.
func seedStyleBuild(n int, edges []Edge) [][]Arc {
	adj := make([][]Arc, n)
	for _, e := range edges {
		dup := false
		for _, a := range adj[e.U] {
			if a.To == e.V {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		adj[e.U] = append(adj[e.U], Arc{To: e.V, Weight: e.Weight})
		adj[e.V] = append(adj[e.V], Arc{To: e.U, Weight: e.Weight})
	}
	return adj
}

func BenchmarkConstructSeedStyle4096(b *testing.B) {
	edges := shuffledEdges4096(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedStyleBuild(4096, edges)
	}
}

func BenchmarkConstructCSR4096(b *testing.B) {
	edges := shuffledEdges4096(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(4096)
		for _, e := range edges {
			bd.Add(e.U, e.V, e.Weight)
		}
		bd.Freeze()
	}
}

func BenchmarkDijkstra4096(b *testing.B) {
	g := RandomConnected(4096, 65536, 8, par.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, Node(i%g.N()))
	}
}

func BenchmarkEdges4096(b *testing.B) {
	g := RandomConnected(4096, 65536, 8, par.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Edges()
	}
}

func BenchmarkFreeze4096(b *testing.B) {
	g := RandomConnected(4096, 65536, 8, par.NewRNG(1))
	bd := g.Builder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Freeze()
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := benchGraph(b, 1024, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, Node(i%g.N()))
	}
}

func BenchmarkMultiSourceDijkstra(b *testing.B) {
	g := benchGraph(b, 1024, 4096)
	sources := []Node{1, 100, 500, 900}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiSourceDijkstra(g, sources)
	}
}

func BenchmarkBellmanFord10Hops(b *testing.B) {
	g := benchGraph(b, 1024, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BellmanFord(g, Node(i%g.N()), 10)
	}
}

func BenchmarkAPSPDijkstra256(b *testing.B) {
	g := benchGraph(b, 256, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		APSPDijkstra(g)
	}
}

func BenchmarkSPDFrom(b *testing.B) {
	g := benchGraph(b, 512, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SPDFrom(g, Node(i%g.N()))
	}
}

func BenchmarkRandomConnected(b *testing.B) {
	rng := par.NewRNG(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomConnected(512, 2048, 8, rng)
	}
}
