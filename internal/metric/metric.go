// Package metric computes approximate distance metrics of graphs through
// the MBF-like oracle, reproducing §6 of Friedrichs & Lenzen:
//
//   - Approximate (Theorem 6.1): query the oracle on the simulated graph H
//     with APSP; the result is the exact shortest-path metric *of H*, which
//     (1+o(1))-approximates the metric of G, obtained in polylog depth.
//
//   - ApproximateSparse (Theorem 6.2): run a Baswana–Sen (2k−1)-spanner
//     first; the same query on the sparsified graph costs less work and
//     returns an O(1)-approximate metric.
//
// Crucially, both results are true metrics (they are shortest-path metrics
// of an actual graph), unlike naive per-pair approximations — the property
// Observation 1.1 shows is unobtainable from d-hop distances directly, and
// the reason the FRT construction embeds H rather than using hop-limited
// distances.
package metric

import (
	"math"

	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
	"parmbf/internal/spanner"
)

// Result is an approximate metric with its a-priori quality guarantee.
type Result struct {
	// Matrix holds the pairwise distances; it is an exact metric (of H).
	Matrix *graph.Matrix
	// MaxRatio bounds Matrix.At(v,w) / dist(v,w,G) from above:
	// (1+ε̂)^{Λ+1} for Approximate, multiplied by (2k−1) for
	// ApproximateSparse. The lower bound is always 1.
	MaxRatio float64
	// Iterations is the number of oracle iterations to the APSP fixpoint
	// (≤ SPD(H) ∈ O(log² n) w.h.p.). It is simgraph.MaxIters(n)+1 when the
	// cap cut the run off; Matrix then holds the states after the last
	// iteration allowed, which need not be the metric of H.
	Iterations int
}

// Approximate computes a (1+o(1))-approximate metric of g (Theorem 6.1) by
// querying the oracle with APSP (identity filter) on the simulated graph H
// built over the default skeleton hop set.
func Approximate(g *graph.Graph, rng *par.RNG, tracker *par.Tracker) *Result {
	hs := hopset.DefaultSkeleton(g, rng, tracker)
	h := simgraph.Build(hs, 0, rng)
	return approximateOnH(h, tracker)
}

// ApproximateSparse computes an O(1)-approximate metric using Õ(n^{1+1/k})
// edges (Theorem 6.2): it sparsifies g with a (2k−1)-spanner and then runs
// Approximate on the spanner. k ≤ 0 selects spanner.RecommendedK(n, 1).
func ApproximateSparse(g *graph.Graph, k int, rng *par.RNG, tracker *par.Tracker) *Result {
	if k <= 0 {
		k = spanner.RecommendedK(g.N(), 1)
	}
	sp := spanner.Build(g, k, rng, tracker)
	res := Approximate(sp, rng, tracker)
	res.MaxRatio *= float64(2*k - 1)
	return res
}

func approximateOnH(h *simgraph.H, tracker *par.Tracker) *Result {
	n := h.N()
	oracle := simgraph.NewOracle(h, tracker)
	x0 := make([]semiring.DistMap, n)
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	identity := semiring.Identity[semiring.DistMap]()
	states, iters := oracle.RunToFixpoint(x0, identity, simgraph.MaxIters(n))

	m := graph.NewMatrix(n)
	par.ForEach(n, func(v int) {
		s := states[v]
		for i := 0; i < s.Len(); i++ {
			m.Set(v, int(s.Node(i)), s.Dist(i))
		}
	})
	return &Result{
		Matrix:     m,
		MaxRatio:   math.Pow(1+h.EpsHat, float64(h.Lambda+1)),
		Iterations: iters,
	}
}
