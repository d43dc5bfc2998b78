package frt

import (
	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
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
	// Tree is the sampled metric tree embedding; Tree.Beta is its random
	// scale β.
	Tree *Tree
	// Order is the random node order used.
	Order *Order
	// Iterations is the number of (oracle) iterations until the LE-list
	// fixpoint, including the one that confirms it. An Embedder draw
	// whose oracle hits its iteration cap is an error, not an Embedding.
	Iterations int
}

// Sample draws one tree from the FRT distribution of g using the full
// pipeline of Theorem 7.9: hop set → simulated graph H → LE lists through
// the MBF-like oracle → tree assembly. The expected stretch is
// O(α^{O(log n)} · log n) where α = 1+ε̂ accounts for H's distance slack —
// O(log n) for the default parameters (Corollary 7.10 with the hop-set
// substitution described in the hopset package doc).
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
	order := NewOrder(g.N(), rng)
	beta := RandomBeta(rng)
	rk := order.mustKeys(g.N())
	lists, iters := leListsRanked(g, []rankKeys{rk}, tracker)
	tree, err := buildTreeRanked(lists[0], rk, beta)
	if err != nil {
		return nil, err
	}
	return &Embedding{Tree: tree, Order: order, Iterations: iters[0]}, nil
}

// SampleExact draws one FRT tree of g's exact metric by solving APSP with
// Dijkstra first — the quadratic-work baseline of experiment E5, and the
// metric input model of Blelloch et al. [10]: the metric is a complete
// graph of SPD 1, so one scan per node yields its LE list, and Θ(n²) work
// is the price of reading the metric.
func SampleExact(g *graph.Graph, rng *par.RNG, tracker *par.Tracker) (*Embedding, error) {
	n := g.N()
	m := graph.APSPDijkstra(g)
	tracker.AddPhase(int64(n)*int64(g.M()+n), int64(graph.SPDFrom(g, 0)+1))
	order := NewOrder(n, rng)
	beta := RandomBeta(rng)
	rk := order.mustKeys(n)
	tree, err := buildTreeRanked(exactLELists(m, rk, tracker), rk, beta)
	if err != nil {
		return nil, err
	}
	return &Embedding{Tree: tree, Order: order, Iterations: 1}, nil
}

// exactLELists reads the rank-keyed LE lists off an explicit metric: it
// scans each row in rank order and keeps an entry iff it is strictly closer
// than every lower-ranked one — Order.Filter's projection with no sort.
func exactLELists(m *graph.Matrix, rk rankKeys, tracker *par.Tracker) []semiring.DistMap {
	n := m.N
	lists := make([]semiring.DistMap, n)
	par.ForEach(n, func(v int) {
		var l semiring.DistMap
		closest := semiring.Inf
		for r, w := range rk.node {
			if d := m.At(v, int(w)); d < closest {
				l, closest = l.Append(graph.Node(r), d), d
			}
		}
		lists[v] = l
	})
	tracker.AddPhase(int64(n)*int64(n), 1)
	return lists
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
