package frt

import (
	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
)

// HopSetKind selects the hop-set construction of the sampling pipeline
// (ablation A3).
type HopSetKind int

const (
	// HopSetSkeleton uses the exact skeleton hop set (the default).
	HopSetSkeleton HopSetKind = iota
	// HopSetLandmark uses the 2-hop landmark hop set.
	HopSetLandmark
	// HopSetNone runs on the raw graph (d = n−1): correct but with depth
	// Θ(SPD(G)·polylog) — the ablation baseline.
	HopSetNone
)

// Options configures Sample.
type Options struct {
	// RNG is the randomness source (required).
	RNG *par.RNG
	// HopSet selects the hop-set stage. HopSetLandmark draws 2·⌈log₂ n⌉
	// landmarks; H's level-penalty base is simgraph.DefaultEpsHat.
	HopSet HopSetKind
	// Tracker, if non-nil, is charged all work/depth.
	Tracker *par.Tracker
}

// Embedding is one sample from the FRT distribution of a graph.
type Embedding struct {
	// Tree is the sampled metric tree embedding.
	Tree *Tree
	// Order is the random node order used.
	Order *Order
	// Beta is the random scale β.
	Beta float64
	// LELists are the per-node LE lists w.r.t. the distances the tree was
	// built on (dist_H in the oracle pipeline, exact distances in the
	// baselines).
	LELists []semiring.DistMap
	// H is the simulated graph, when the oracle pipeline was used (nil in
	// the baselines).
	H *simgraph.H
	// Iterations is the number of (oracle) iterations until the LE-list
	// fixpoint.
	Iterations int
}

// Sample draws one tree from the FRT distribution of g using the full
// pipeline of Theorem 7.9: hop set → simulated graph H → LE lists through
// the MBF-like oracle → tree assembly. The expected stretch is
// O(α^{O(log n)} · log n) where α = 1+ε̂ accounts for H's distance slack —
// O(log n) for the default parameters (Corollary 7.10 with the hop-set
// substitution recorded in DESIGN.md).
//
// Sample rebuilds the pipeline on every call; to draw several trees of the
// same graph, use NewEmbedder and amortise the hop-set and H construction.
func Sample(g *graph.Graph, opts Options) (*Embedding, error) {
	e, err := NewEmbedder(g, opts)
	if err != nil {
		return nil, err
	}
	return e.Sample()
}

// SampleOnGraph draws one FRT tree by computing LE lists directly on g — the
// parallel form of the Khan et al. algorithm (§8.1), with depth Θ(SPD(G))
// instead of polylog. The trees are drawn from the FRT distribution of g's
// exact metric.
func SampleOnGraph(g *graph.Graph, rng *par.RNG, tracker *par.Tracker) (*Embedding, error) {
	n := g.N()
	order := NewOrder(n, rng)
	beta := RandomBeta(rng)
	lists, iters := LEListsOnGraph(g, order, tracker)
	tree, err := BuildTree(lists, order, beta)
	if err != nil {
		return nil, err
	}
	return &Embedding{Tree: tree, Order: order, Beta: beta, LELists: lists, Iterations: iters}, nil
}

// SampleFromMetric draws one FRT tree from an explicit metric — the input
// model of Blelloch et al. [10] (Θ(n²) work by reading the metric once).
func SampleFromMetric(m *graph.Matrix, rng *par.RNG, tracker *par.Tracker) (*Embedding, error) {
	order := NewOrder(m.N, rng)
	beta := RandomBeta(rng)
	lists := LEListsFromMetric(m, order, tracker)
	tree, err := BuildTree(lists, order, beta)
	if err != nil {
		return nil, err
	}
	return &Embedding{Tree: tree, Order: order, Beta: beta, LELists: lists, Iterations: 1}, nil
}

// SampleExact draws one FRT tree of g's exact metric by solving APSP with
// Dijkstra first — the quadratic-work baseline of experiment E5.
func SampleExact(g *graph.Graph, rng *par.RNG, tracker *par.Tracker) (*Embedding, error) {
	m := graph.APSPDijkstra(g)
	tracker.AddPhase(int64(g.N())*int64(g.M()+g.N()), int64(graph.SPDFrom(g, 0)+1))
	return SampleFromMetric(m, rng, tracker)
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v *= 2 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}
