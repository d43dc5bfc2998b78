package mbf

import (
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// iterateBench builds the DistMap source-detection workload of the
// aggregation benchmarks at n=4096: k=8 states warmed to their filtered
// fixpoint shape, so each measured Iterate sees realistic list sizes.
func iterateBench(generic bool) (*Runner[float64, semiring.DistMap], []semiring.DistMap) {
	g := graph.RandomConnected(4096, 16384, 8, par.NewRNG(7))
	r := &Runner[float64, semiring.DistMap]{
		Graph:         g,
		Module:        semiring.DistMapModule{},
		Filter:        semiring.TopKFilter(8, semiring.Inf, nil),
		FilterInPlace: semiring.TopKFilterInPlace(8, semiring.Inf, nil),
		Weight:        MinPlusWeight,
	}
	if generic {
		r.Module = foldOnly[float64, semiring.DistMap]{semiring.DistMapModule{}}
		r.FilterInPlace = nil
	}
	x := make([]semiring.DistMap, g.N())
	for v := range x {
		x[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	for i := 0; i < 4; i++ {
		x = r.Iterate(x)
	}
	return r, x
}

// BenchmarkIterate4096 measures one MBF-like iteration over the DistMap
// semimodule with the k-way aggregation fast path (one allocation per node).
func BenchmarkIterate4096(b *testing.B) {
	r, x := iterateBench(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Iterate(x)
	}
}

// BenchmarkIterateGeneric4096 is the same workload through the generic
// Add/SMul fold — the pre-fast-path baseline the regression gate compares
// against.
func BenchmarkIterateGeneric4096(b *testing.B) {
	r, x := iterateBench(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Iterate(x)
	}
}

// fixpointBenchRunner builds the OracleIterate-style fixpoint workload at
// n=4096: ({s}, ∞, ∞, 8) source detection run to its fixpoint on a 64×64
// grid — the loop shape of the §5 oracle's per-level inner runs and of
// LE-list computations, on the kind of high-SPD topology those fixpoints
// are slow on. Distance information moves outward from the source as a
// wavefront over SPD ≈ 100+ iterations, so a dense loop would re-aggregate
// thousands of already-stable states per step while the frontier engine
// touches only the wave.
func fixpointBenchRunner() (*Runner[float64, semiring.DistMap], []semiring.DistMap) {
	g := graph.GridGraph(64, 64, 8, par.NewRNG(9))
	r := &Runner[float64, semiring.DistMap]{
		Graph:         g,
		Module:        semiring.DistMapModule{},
		Filter:        semiring.TopKFilter(8, semiring.Inf, nil),
		FilterInPlace: semiring.TopKFilterInPlace(8, semiring.Inf, nil),
		Weight:        MinPlusWeight,
	}
	x0 := make([]semiring.DistMap, g.N())
	x0[0] = semiring.SingletonDist(0, 0)
	return r, x0
}

// BenchmarkFixpointSparse4096 measures the frontier-driven sparse fixpoint
// loop on the grid wavefront workload.
func BenchmarkFixpointSparse4096(b *testing.B) {
	r, x0 := fixpointBenchRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunToFixpoint(x0, r.Graph.N())
	}
}

// BenchmarkSourceDetection4096 measures the whole Example 3.2 algorithm at
// n=4096: 8 iterations of k=8 source detection, end to end.
func BenchmarkSourceDetection4096(b *testing.B) {
	g := graph.RandomConnected(4096, 16384, 8, par.NewRNG(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SourceDetection(g, nil, 8, semiring.Inf, 8, nil)
	}
}

func BenchmarkSSSPIteration(b *testing.B) {
	g := graph.RandomConnected(1024, 4096, 8, par.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SSSP(g, 0, 10, nil)
	}
}

func BenchmarkKSSP(b *testing.B) {
	g := graph.RandomConnected(512, 2048, 8, par.NewRNG(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSSP(g, 4, 10, nil)
	}
}

func BenchmarkAPSP10Hops(b *testing.B) {
	g := graph.RandomConnected(256, 1024, 8, par.NewRNG(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		APSP(g, 10, nil)
	}
}

func BenchmarkWidestPaths(b *testing.B) {
	g := graph.RandomConnected(512, 2048, 8, par.NewRNG(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SSWP(g, 0, g.N(), nil)
	}
}

func BenchmarkRoutingTablesTop8(b *testing.B) {
	g := graph.RandomConnected(256, 1024, 8, par.NewRNG(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RoutingTables(g, 8, 12, nil)
	}
}

// BenchmarkAPWP and BenchmarkConnectivity run the two sparse-list algebras
// that aggregate through the generic Add/SMul fold (WidthMap, BoolSet): six
// all-pairs iterations on the same graph, where the states grow to hundreds
// of entries.
func BenchmarkAPWP(b *testing.B) {
	g := graph.RandomConnected(512, 2048, 20, par.NewRNG(6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		APWP(g, 6, nil)
	}
}

func BenchmarkConnectivity(b *testing.B) {
	g := graph.RandomConnected(512, 2048, 20, par.NewRNG(6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Connectivity(g, 6, nil)
	}
}
