package frt

import (
	"math"
	"sort"
	"sync"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// Ensemble is a collection of independent FRT embeddings of one graph, the
// form in which tree embeddings are consumed by approximation algorithms:
// each tree over-estimates every distance, the expectation of each estimate
// is O(log n)·dist, and taking the minimum over Θ(log(1/ε)) trees yields an
// O(log n)-approximation with probability 1−ε (§1 of the paper: "repeating
// the process log(ε⁻¹) times and taking the best result").
//
// An Ensemble doubles as a one-sided approximate distance oracle: Min never
// under-estimates, queries cost O(trees · log depth) through the lazily
// built OracleIndex, and no Θ(n²) metric is ever stored.
//
// The first query (Min, Median, Evaluate, or Index) indexes the trees;
// Trees must not be mutated afterwards, or queries will answer from the
// stale index.
type Ensemble struct {
	Trees []*Tree

	idxOnce sync.Once
	idx     *OracleIndex
	idxErr  error
}

// Index returns the ensemble's OracleIndex, building it on first use
// (O(trees · n · depth)); a DynamicEnsemble's snapshot holds its index
// already. All of Min, Median, and Evaluate answer from it.
func (e *Ensemble) Index() (*OracleIndex, error) {
	e.idxOnce.Do(func() { e.idx, e.idxErr = NewOracleIndex(e.Trees) })
	return e.idx, e.idxErr
}

// Min returns the smallest tree distance over the ensemble — an upper bound
// on dist(u, v, G) that tightens as trees are added. It answers from the
// OracleIndex (bitwise identical to the direct parent-walk minimum). If the
// index cannot be built because any tree is structurally invalid, the whole
// ensemble falls back to the O(trees·depth) parent walk — check
// (*Ensemble).Index's error to detect that state rather than serving at
// walk speed.
func (e *Ensemble) Min(u, v graph.Node) float64 {
	if idx, err := e.Index(); err == nil {
		return idx.Min(u, v)
	}
	return e.minWalk(u, v)
}

// minWalk is the pre-index query path: one lockstep parent walk per tree.
// It is the reference implementation the differential tests pin MinBatch
// against, and the fallback for structurally invalid trees.
func (e *Ensemble) minWalk(u, v graph.Node) float64 {
	best := e.Trees[0].Dist(u, v)
	for _, t := range e.Trees[1:] {
		if d := t.Dist(u, v); d < best {
			best = d
		}
	}
	return best
}

// Median returns the median tree distance — a robust estimate of the
// typical O(log n)-stretched distance.
func (e *Ensemble) Median(u, v graph.Node) float64 {
	if idx, err := e.Index(); err == nil {
		return idx.Median(u, v)
	}
	ds := make([]float64, len(e.Trees))
	for i, t := range e.Trees {
		ds[i] = t.Dist(u, v)
	}
	return MedianOf(ds)
}

// MedianOf returns the median of the non-empty ds — the middle value, or
// the mean of the two middle values for even length — sorting ds in place.
// OracleIndex.Median, Ensemble.Median and the router's sharded merge all
// fold per-tree distances through it, so their medians agree bitwise.
func MedianOf(ds []float64) float64 {
	sort.Float64s(ds)
	mid := len(ds) / 2
	if len(ds)%2 == 1 {
		return ds[mid]
	}
	return (ds[mid-1] + ds[mid]) / 2
}

// EnsembleStats summarises ensemble quality on random pairs.
type EnsembleStats struct {
	Pairs int
	// AvgMinStretch is the mean of Min(u,v)/dist(u,v): the oracle's typical
	// over-estimation factor.
	AvgMinStretch float64
	// MaxMinStretch is its worst case over the sampled pairs.
	MaxMinStretch float64
	// DominanceOK reports whether Min never under-estimated.
	DominanceOK bool
}

// Evaluate measures the ensemble's Min estimator against exact distances on
// `pairs` random pairs. The pairs are drawn sequentially from rng (so a
// fixed seed selects a fixed pair set); the exact distances (one Dijkstra
// per distinct source, reused across that source's pairs) are computed in
// parallel, and the per-pair tree-distance minima go through the
// OracleIndex's batched MinBatch path.
func (e *Ensemble) Evaluate(g *graph.Graph, pairs int, rng *par.RNG) EnsembleStats {
	ps := drawEvalPairs(g, pairs, rng, false)
	mins := make([]float64, len(ps))
	if idx, err := e.Index(); err == nil {
		qs := make([]Pair, len(ps))
		for i, p := range ps {
			qs[i] = Pair{U: p.u, V: p.v}
		}
		idx.MinBatch(qs, mins)
	} else {
		par.ForEach(len(ps), func(i int) { mins[i] = e.minWalk(ps[i].u, ps[i].v) })
	}
	stats := par.Reduce(len(ps), EnsembleStats{DominanceOK: true},
		func(i int) EnsembleStats {
			ratio := mins[i] / ps[i].d
			return EnsembleStats{
				Pairs:         1,
				AvgMinStretch: ratio,
				MaxMinStretch: ratio,
				DominanceOK:   ratio >= 1-1e-9,
			}
		},
		func(a, b EnsembleStats) EnsembleStats {
			return EnsembleStats{
				Pairs:         a.Pairs + b.Pairs,
				AvgMinStretch: a.AvgMinStretch + b.AvgMinStretch,
				MaxMinStretch: math.Max(a.MaxMinStretch, b.MaxMinStretch),
				DominanceOK:   a.DominanceOK && b.DominanceOK,
			}
		})
	if stats.Pairs > 0 {
		stats.AvgMinStretch /= float64(stats.Pairs)
	}
	return stats
}

// indexedEnsemble returns an Ensemble of trees whose Index is idx, which
// must index exactly those trees.
func indexedEnsemble(trees []*Tree, idx *OracleIndex) *Ensemble {
	e := &Ensemble{Trees: trees}
	e.idxOnce.Do(func() { e.idx = idx })
	return e
}
