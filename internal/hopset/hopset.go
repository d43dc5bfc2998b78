// Package hopset constructs (d, ε̂)-hop sets: extra edges E′ for a graph G
// such that the d-hop distances in G′ = G + E′ (1+ε̂)-approximate the exact
// distances of G (§1.2, Equation 1.3). Hop sets are the first stage of the
// tree-embedding pipeline (§4): they bound the number of MBF-like iterations
// needed before distances stabilise.
//
// The paper invokes Cohen's polylog-hop-set construction [13]. In its place
// this package provides two self-contained replacements:
//
//   - Skeleton: an *exact* (O(√(n log n)), 0)-hop set in the style of the
//     skeleton graphs of §8.2 (and Lemma 4.6 of [29]): sample each node with
//     probability Θ(log n / ℓ); w.h.p. every min-hop shortest path has a
//     sampled node within every ℓ consecutive hops, so connecting sampled
//     nodes at their ℓ-hop distances makes every shortest path realisable
//     with few hops, at unchanged length.
//
//   - Landmark: a (2·ℓ_lm+2, ε̂)-hop set with measured ε̂: every node gains
//     an exact-distance edge to each of a few landmark nodes. d is tiny but
//     ε̂ is a workload property, reported by Measure.
//
// Every theorem downstream (Theorem 7.9 in particular) is parameterised only
// by (d, ε̂), which both constructions supply; the experiment E6 bench
// verifies the hop-set inequality empirically for every sampled pair.
package hopset

import (
	"math"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Result describes a constructed hop set.
type Result struct {
	// Graph is G′ = G augmented with the hop-set edges.
	Graph *graph.Graph
	// D is the hop bound d: dist^D(v,w,G′) ≤ (1+EpsHat)·dist(v,w,G) for
	// all pairs (w.h.p. for the randomised constructions).
	D int
	// EpsHat is the guaranteed distance slack ε̂ (0 for Skeleton; for
	// Landmark it is an a-priori-unknown workload property — use Measure).
	EpsHat float64
	// Added is the number of edges added on top of G.
	Added int
}

// None returns the trivial hop set: G itself with d = n−1 and ε̂ = 0. It is
// the baseline of ablation A3.
func None(g *graph.Graph) *Result {
	d := g.N() - 1
	if d < 1 {
		d = 1
	}
	return &Result{Graph: g, D: d, EpsHat: 0, Added: 0}
}

// Skeleton builds the exact skeleton hop set with window length ell and
// oversampling factor c (sampling probability min(1, c·ln(n)/ell) per node).
// Larger c sharpens the w.h.p. guarantee at the cost of more skeleton nodes.
// The input graph is not modified.
func Skeleton(g *graph.Graph, ell int, c float64, rng *par.RNG, tracker *par.Tracker) *Result {
	n := g.N()
	if ell < 1 {
		ell = 1
	}
	p := c * math.Log(float64(n)+1) / float64(ell)
	if p > 1 {
		p = 1
	}
	var skeleton []graph.Node
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			skeleton = append(skeleton, graph.Node(v))
		}
	}
	if len(skeleton) == 0 && n > 0 {
		skeleton = append(skeleton, graph.Node(rng.Intn(n)))
	}

	// ℓ-hop-limited distances from every skeleton node, in parallel.
	dists := make([][]float64, len(skeleton))
	par.ForEach(len(skeleton), func(i int) {
		dists[i] = graph.BellmanFord(g, skeleton[i], ell)
	})
	tracker.AddPhase(int64(len(skeleton))*int64(ell)*int64(g.M()+1), int64(ell))

	// Accumulate the overlay edges in a Builder seeded with G; Freeze
	// collapses parallel edges to the lightest, so a candidate only
	// survives where it beats the existing weight.
	b := g.Builder()
	for i, s := range skeleton {
		for j := i + 1; j < len(skeleton); j++ {
			t := skeleton[j]
			d := dists[i][t]
			if semiring.IsInf(d) || d <= 0 {
				continue
			}
			b.Add(s, t, d)
		}
	}
	gp := b.Freeze()
	added := gp.M() - g.M()
	tracker.AddPhase(int64(len(skeleton))*int64(len(skeleton)), 1)

	// Hop bound: ℓ hops to reach the first skeleton node, one overlay hop
	// between consecutive sampled nodes of the path (≤ ⌈n/ℓ⌉+1 of them),
	// and ℓ hops from the last skeleton node to the target.
	d := 2*ell + n/ell + 2
	if d > n-1 && n > 1 {
		d = n - 1
	}
	if d < 1 {
		d = 1
	}
	return &Result{Graph: gp, D: d, EpsHat: 0, Added: added}
}

// DefaultSkeleton builds Skeleton with the balanced window length
// ℓ = ⌈√(n·ln n)⌉ that equalises the two terms of the hop bound, giving
// d ∈ O(√(n log n)).
func DefaultSkeleton(g *graph.Graph, rng *par.RNG, tracker *par.Tracker) *Result {
	n := g.N()
	ell := int(math.Ceil(math.Sqrt(float64(n) * math.Log(float64(n)+2))))
	return Skeleton(g, ell, 2, rng, tracker)
}

// Landmark adds, for each of `count` random landmark nodes, exact-distance
// edges from every node to the landmark. Any v-w path can then be shortcut
// as v→landmark→w in 2 hops; the distance error depends on how well the
// landmarks cover the graph, so EpsHat is reported as NaN and must be
// measured with Measure. The hop bound is 2.
func Landmark(g *graph.Graph, count int, rng *par.RNG, tracker *par.Tracker) *Result {
	n := g.N()
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	landmarks := make([]graph.Node, 0, count)
	for _, v := range rng.Perm(n)[:count] {
		landmarks = append(landmarks, graph.Node(v))
	}

	dists := make([]*graph.SSSPResult, count)
	par.ForEach(count, func(i int) {
		dists[i] = graph.Dijkstra(g, landmarks[i])
	})
	tracker.AddPhase(int64(count)*int64(g.M()+g.N()), int64(g.N()))

	b := g.Builder()
	for i, l := range landmarks {
		for v := 0; v < n; v++ {
			d := dists[i].Dist[v]
			if graph.Node(v) == l || semiring.IsInf(d) || d <= 0 {
				continue
			}
			b.Add(graph.Node(v), l, d)
		}
	}
	gp := b.Freeze()
	return &Result{Graph: gp, D: 2, EpsHat: math.NaN(), Added: gp.M() - g.M()}
}

// Measure empirically evaluates the hop-set inequality (1.3) on `pairs`
// random node pairs: it returns the maximum observed ratio
// dist^D(v,w,G′) / dist(v,w,G) (the effective 1+ε̂) and the maximum observed
// shrinkage dist(v,w,G′) / dist(v,w,G) (which must be ≥ 1: hop-set edges
// must never shorten distances). This powers experiment E6.
func Measure(g *graph.Graph, r *Result, pairs int, rng *par.RNG) (maxRatio, minRatio float64) {
	n := g.N()
	maxRatio, minRatio = 1, 1
	for i := 0; i < pairs; i++ {
		v := graph.Node(rng.Intn(n))
		exact := graph.Dijkstra(g, v)
		w := graph.Node(rng.Intn(n))
		if v == w {
			continue
		}
		dHop := graph.HopLimitedDistance(r.Graph, v, w, r.D)
		dExact := exact.Dist[w]
		if semiring.IsInf(dExact) {
			continue
		}
		if ratio := dHop / dExact; ratio > maxRatio {
			maxRatio = ratio
		}
		full := graph.Dijkstra(r.Graph, v).Dist[w]
		if ratio := full / dExact; ratio < minRatio {
			minRatio = ratio
		}
	}
	return maxRatio, minRatio
}
