package kmedian

import (
	"math"
	"sync"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// The bench fixture is one n=1024, m=16384 graph (mean degree 32) with a
// K=4 ensemble. Solve evaluates every per-tree plan exactly, one
// multi-source Dijkstra sweep each (EvalDijkstra); EvalPerCenter is the
// seed-era loop of one single-source Dijkstra per center.
var benchFix struct {
	once    sync.Once
	g       *graph.Graph
	ens     *frt.Ensemble
	centers []graph.Node
	err     error
}

func benchFixture(b *testing.B) (*graph.Graph, *frt.Ensemble, []graph.Node) {
	b.Helper()
	benchFix.once.Do(func() {
		rng := par.NewRNG(17)
		benchFix.g = graph.RandomConnected(1024, 16384, 8, rng)
		emb, err := frt.NewEmbedder(benchFix.g, frt.Options{RNG: rng})
		if err != nil {
			benchFix.err = err
			return
		}
		benchFix.ens, benchFix.err = emb.SampleEnsemble(4)
		if benchFix.err != nil {
			return
		}
		for i := 0; i < 8; i++ {
			benchFix.centers = append(benchFix.centers, graph.Node(i*127))
		}
	})
	if benchFix.err != nil {
		b.Fatal(benchFix.err)
	}
	return benchFix.g, benchFix.ens, benchFix.centers
}

// BenchmarkKMedianEvalDijkstra is one exact evaluation of a center set
// through the batched multi-source sweep — what Solve pays per tree.
func BenchmarkKMedianEvalDijkstra(b *testing.B) {
	g, _, centers := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Cost(g, centers) <= 0 {
			b.Fatal("non-positive cost")
		}
	}
}

// BenchmarkKMedianEvalPerCenter is the seed-era evaluation loop: one full
// single-source Dijkstra per center, folded to a per-client min — the
// per-center Dijkstra loop the application tier ran before it was rebased
// onto the oracle and multi-source kernels.
func BenchmarkKMedianEvalPerCenter(b *testing.B) {
	g, _, centers := benchFixture(b)
	best := make([]float64, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range best {
			best[v] = math.Inf(1)
		}
		for _, c := range centers {
			res := graph.Dijkstra(g, c)
			for v, d := range res.Dist {
				if d < best[v] {
					best[v] = d
				}
			}
		}
		total := 0.0
		for _, d := range best {
			total += d
		}
		if total <= 0 {
			b.Fatal("non-positive cost")
		}
	}
}

// BenchmarkKMedianSolve is the full pipeline per op: candidate sampling
// through the sparse engine, then one tree DP and one exact evaluation per
// ensemble tree.
func BenchmarkKMedianSolve(b *testing.B) {
	g, ens, _ := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(g, 8, Options{RNG: par.NewRNG(23), Ensemble: ens})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cost <= 0 {
			b.Fatal("non-positive cost")
		}
	}
}

// BenchmarkTreeKMedian is one tree DP per op: the first fixture tree, k=8,
// centers restricted to the candidates BenchmarkKMedianSolve samples.
func BenchmarkTreeKMedian(b *testing.B) {
	g, ens, _ := benchFixture(b)
	allowed := make([]bool, g.N())
	for _, q := range SampleCandidates(g, 8, par.NewRNG(23), nil) {
		allowed[q] = true
	}
	weight := make([]float64, g.N())
	for v := range weight {
		weight[v] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(TreeKMedian(ens.Trees[0], weight, allowed, 8)) == 0 {
			b.Fatal("no centers")
		}
	}
}
