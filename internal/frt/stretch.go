package frt

import (
	"fmt"
	"math"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// StretchStats summarises a stretch measurement of a tree-embedding sampler
// against the exact metric of a graph (experiment E1; Definition 7.1).
type StretchStats struct {
	// Pairs is the number of node pairs evaluated.
	Pairs int
	// Trees is the number of independent embeddings sampled.
	Trees int
	// AvgStretch is the mean over pairs of the empirical expected stretch
	// E[dist_T(u,v)] / dist_G(u,v).
	AvgStretch float64
	// MaxAvgStretch is the maximum over pairs of the empirical expected
	// stretch — the quantity the O(log n) bound of [19] speaks about.
	MaxAvgStretch float64
	// MaxStretch is the worst single-tree stretch observed (may be large:
	// only the expectation is bounded).
	MaxStretch float64
	// MinRatio is the smallest observed dist_T/dist_G. Definition 7.1
	// requires it to be ≥ 1 (after discounting H's (1+o(1)) slack the
	// pipeline still guarantees dist_T ≥ dist_H ≥ dist_G).
	MinRatio float64
}

// evalPair is a sampled node pair annotated with its exact distance in g.
type evalPair struct {
	u, v graph.Node
	d    float64
}

// drawEvalPairs samples node pairs of g from rng — retrying equal endpoints
// until `count` pairs exist when retry is set, making `count` draws and
// dropping equal endpoints otherwise — and fills in exact distances with one
// Dijkstra per distinct source, sources fanned out in parallel.
func drawEvalPairs(g *graph.Graph, count int, rng *par.RNG, retry bool) []evalPair {
	n := g.N()
	ps := make([]evalPair, 0, count)
	for drawn := 0; retry && len(ps) < count || !retry && drawn < count; drawn++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if u == v {
			continue
		}
		ps = append(ps, evalPair{u: u, v: v})
	}
	bySource := map[graph.Node][]int{}
	var sources []graph.Node
	for i, p := range ps {
		if _, ok := bySource[p.u]; !ok {
			sources = append(sources, p.u)
		}
		bySource[p.u] = append(bySource[p.u], i)
	}
	par.ForEach(len(sources), func(si int) {
		res := graph.Dijkstra(g, sources[si])
		for _, i := range bySource[sources[si]] {
			ps[i].d = res.Dist[ps[i].v]
		}
	})
	return ps
}

// MeasureStretch samples `trees` embeddings from sampler and evaluates them
// on `pairs` random node pairs of g against exact distances. Each sampled
// tree's Tree.Dist walk evaluates the pair set in parallel; a fixed seed
// reports fixed statistics.
func MeasureStretch(g *graph.Graph, sampler func() (*Embedding, error), trees, pairs int, rng *par.RNG) (StretchStats, error) {
	n := g.N()
	if n < 2 {
		return StretchStats{}, fmt.Errorf("frt: need ≥ 2 nodes")
	}
	ps := drawEvalPairs(g, pairs, rng, true)

	sum := make([]float64, len(ps))
	ratios := make([]float64, len(ps))
	stats := StretchStats{Pairs: len(ps), Trees: trees, MinRatio: math.Inf(1)}
	for t := 0; t < trees; t++ {
		emb, err := sampler()
		if err != nil {
			return stats, err
		}
		par.ForEach(len(ps), func(i int) { ratios[i] = emb.Tree.Dist(ps[i].u, ps[i].v) / ps[i].d })
		for i, ratio := range ratios {
			sum[i] += ratio
			if ratio > stats.MaxStretch {
				stats.MaxStretch = ratio
			}
			if ratio < stats.MinRatio {
				stats.MinRatio = ratio
			}
		}
	}
	for _, s := range sum {
		avg := s / float64(trees)
		stats.AvgStretch += avg
		if avg > stats.MaxAvgStretch {
			stats.MaxAvgStretch = avg
		}
	}
	stats.AvgStretch /= float64(len(ps))
	return stats, nil
}
