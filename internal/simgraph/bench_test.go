package simgraph_test

import (
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
)

// BenchmarkOracleIterate measures one simulated iteration on H (Equation
// 5.9): Λ+1 levels of d filtered iterations on G′ plus the cross-level
// k-way merge, over the distance-map semimodule with a top-8 filter.
func BenchmarkOracleIterate(b *testing.B) {
	g := graph.RandomConnected(256, 1024, 8, par.NewRNG(11))
	hs := hopset.DefaultSkeleton(g, par.NewRNG(12), nil)
	h := simgraph.Build(hs, 0, par.NewRNG(13))
	oracle := simgraph.NewOracle(h, nil)
	filter := semiring.TopKFilter(8, semiring.Inf, nil)
	x := make([]semiring.DistMap, g.N())
	for v := range x {
		x[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	x = oracle.Run(x, filter, 1) // warm the states into their filtered shape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.Iterate(x, filter)
	}
}

// BenchmarkOracleRunToFixpoint measures the LE-list computation of one FRT
// tree on H: the oracle configuration of an Embedder draw
// (StaircaseFixpoint) on rank-keyed lists, where the LE filter is the
// semiring.Staircase scan fused into every aggregation. Unlike a single
// Iterate it includes the later oracle iterations, where the level runs
// resume from their previous fixpoints.
func BenchmarkOracleRunToFixpoint(b *testing.B) {
	g := graph.RandomConnected(256, 1024, 8, par.NewRNG(11))
	hs := hopset.DefaultSkeleton(g, par.NewRNG(12), nil)
	h := simgraph.Build(hs, 0, par.NewRNG(13))
	order := frt.NewOrder(g.N(), par.NewRNG(14))
	keys := make([]semiring.NodeID, g.N())
	for v, r := range order.Rank {
		keys[v] = semiring.NodeID(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simgraph.StaircaseFixpoint(h, keys, nil, simgraph.MaxIters(g.N()))
	}
}
