package frt

import (
	"fmt"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// reportCounters stops the timer and publishes the deterministic cost
// counters of one traced run of a benchmark's operation with fixed
// randomness: run charges tr and returns its (oracle or fixpoint)
// iterations. The timed loop runs untraced, since tracing adds work, and
// varies its randomness from op to op, so the counters come from this run:
// work/op and depth/op are the tracker's work and depth and iters/op the
// iterations, which repeat bitwise run to run and across par.MaxProcs.
func reportCounters(b *testing.B, run func(tr *par.Tracker) int) {
	b.StopTimer()
	tr := &par.Tracker{}
	iters := run(tr)
	b.ReportMetric(float64(tr.Work()), "work/op")
	b.ReportMetric(float64(tr.Depth()), "depth/op")
	b.ReportMetric(float64(iters), "iters/op")
}

func BenchmarkLEListsOnGraph(b *testing.B) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(512, 2048, 8, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := NewOrder(g.N(), rng)
		leListsOnGraph(g, order, nil)
	}
	reportCounters(b, func(tr *par.Tracker) int {
		_, iters := leListsOnGraph(g, NewOrder(g.N(), par.NewRNG(7)), tr)
		return iters
	})
}

func BenchmarkLEListsFromMetric(b *testing.B) {
	rng := par.NewRNG(2)
	g := graph.RandomConnected(256, 1024, 8, rng)
	m := graph.APSPDijkstra(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactLELists(m, NewOrder(m.N, rng).MustKeys(m.N), nil)
	}
}

// BenchmarkLEFilter applies the LE filter to one unfiltered state in both
// key spaces: node-keyed (Order.Filter: relabel to rank keys, Staircase
// scan, relabel back to node keys) and rank-keyed (the bare Staircase scan
// the fixpoints run).
func BenchmarkLEFilter(b *testing.B) {
	rng := par.NewRNG(3)
	order := NewOrder(256, rng)
	// A worst-case-ish unfiltered state: 64 entries with random distances.
	input := semiring.NewDistMap(64)
	for node := semiring.NodeID(0); node < 256; node += 4 {
		input = input.Append(node, float64(rng.Intn(1000)))
	}
	ranked := input.Relabel(order.MustKeys(256).Key)
	for _, c := range []struct {
		name   string
		filter semiring.Filter[semiring.DistMap]
		input  semiring.DistMap
	}{
		{"node", order.Filter(), input},
		{"rank", semiring.Staircase, ranked},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.filter(c.input)
			}
		})
	}
}

func BenchmarkBuildTree(b *testing.B) {
	rng := par.NewRNG(4)
	g := graph.RandomConnected(512, 2048, 8, rng)
	order := NewOrder(g.N(), rng)
	lists, _ := leListsOnGraph(g, order, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTree(lists, order, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraph is the fixed workload of the ensemble benchmarks: big enough
// that pipeline construction dominates, small enough for CI (one oracle
// pipeline run costs ~0.4s at this size and grows superlinearly).
func benchGraph() *graph.Graph {
	return graph.RandomConnected(64, 256, 8, par.NewRNG(99))
}

// BenchmarkEnsembleNaive is the pre-Embedder path: every tree re-runs the
// whole hop-set → H → oracle pipeline, sequentially.
func BenchmarkEnsembleNaive(b *testing.B) {
	g := benchGraph()
	for _, trees := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := par.NewRNG(42)
				_, err := sampleEnsemble(trees, func() (*Embedding, error) {
					return Sample(g, Options{RNG: rng})
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnsembleShared draws the same ensembles through the Embedder:
// one pipeline, trees sampled concurrently.
func BenchmarkEnsembleShared(b *testing.B) {
	g := benchGraph()
	for _, trees := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := NewEmbedder(g, Options{RNG: par.NewRNG(42)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.SampleEnsemble(trees); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmbedderSample measures one oracle-pipeline tree draw on a warm
// Embedder (hop set and H already built) — the per-tree cost that the
// aggregation fast path accelerates.
func BenchmarkEmbedderSample(b *testing.B) {
	g := graph.RandomConnected(128, 512, 8, par.NewRNG(6))
	e, err := NewEmbedder(g, Options{RNG: par.NewRNG(42)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Sample(); err != nil {
			b.Fatal(err)
		}
	}
	reportCounters(b, func(tr *par.Tracker) int {
		e, err := NewEmbedder(g, Options{RNG: par.NewRNG(42)})
		if err != nil {
			b.Fatal(err)
		}
		e.opts.Tracker = tr // the draw's work only, not the hop set's
		emb, err := e.Sample()
		if err != nil {
			b.Fatal(err)
		}
		return emb.Iterations
	})
}

// BenchmarkEmbedderSampleChungLu1024 is a K=2 draw on a warm Embedder at the
// scale tier's graph shape (scaleGraph: Chung-Lu, average degree 8, tail
// exponent 2.5) with the landmark hop set, at n=1024. Its hubs give H nodes
// with hundreds of in-neighbours, so the oracle's merge over many input
// lists dominates — the shape BenchmarkEmbedderSample at n=128 never
// reaches.
func BenchmarkEmbedderSampleChungLu1024(b *testing.B) {
	g := scaleGraph(1 << 10)
	e, err := NewEmbedder(g, Options{RNG: par.NewRNG(42), HopSet: HopSetLandmark})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SampleEnsemble(2); err != nil {
			b.Fatal(err)
		}
	}
	// iters/op sums the two trees' oracle iterations.
	reportCounters(b, func(tr *par.Tracker) int {
		e, err := NewEmbedder(g, Options{RNG: par.NewRNG(42), HopSet: HopSetLandmark})
		if err != nil {
			b.Fatal(err)
		}
		e.opts.Tracker = tr // the draw's work only, not the hop set's
		embs, err := e.SampleEmbeddings(2)
		if err != nil {
			b.Fatal(err)
		}
		return embs[0].Iterations + embs[1].Iterations
	})
}

func BenchmarkTreeDist(b *testing.B) {
	rng := par.NewRNG(5)
	g := graph.RandomConnected(512, 2048, 8, rng)
	emb, err := SampleOnGraph(g, rng, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb.Tree.Dist(graph.Node(i%512), graph.Node((i*7)%512))
	}
}
