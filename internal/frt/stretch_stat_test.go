package frt

import (
	"math"
	"sort"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// The statistical-stretch suite turns the paper's Theorem-level guarantee
// into a regression test: a fixed-seed ensemble must (a) dominate the true
// metric — Min(u,v) ≥ dist_G(u,v) for every sampled pair, verified against
// graph.Dijkstra — and (b) keep the median min-stretch under a pinned
// c·log₂ n. The dominance bound is exact up to float tolerance (the doubled
// tree edge weights make it unconditional, see the Tree doc); the median
// bound is statistical, so it is checked on fixed seeds with a constant
// pinned ~2× above the observed values — loose enough never to flake on
// the committed seeds, tight enough that a regression that destroys the
// O(log n) behaviour (or the dominance doubling) fails loudly.

// stretchBoundC is the pinned constant: median min-stretch must stay below
// stretchBoundC·log₂ n. Observed medians on the fixed seeds below are
// 3.4–3.7 (log₂ n ≈ 7), so c=1 gives ~2× headroom while a stretch
// blow-up to Θ(n^ε) at these sizes would exceed it immediately.
const stretchBoundC = 1.0

func checkEnsembleStretch(t *testing.T, name string, g *graph.Graph, e *Ensemble, pairRNG *par.RNG, pairs int) {
	t.Helper()
	n := g.N()
	idx, err := e.Index()
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Pair, 0, pairs)
	for len(qs) < pairs {
		u, v := graph.Node(pairRNG.Intn(n)), graph.Node(pairRNG.Intn(n))
		if u != v {
			qs = append(qs, Pair{U: u, V: v})
		}
	}
	mins := idx.MinBatch(qs, nil)

	// Exact distances straight from Dijkstra, one run per distinct source.
	exact := make([]float64, len(qs))
	bySource := map[graph.Node][]int{}
	for i, q := range qs {
		bySource[q.U] = append(bySource[q.U], i)
	}
	for src, is := range bySource {
		res := graph.Dijkstra(g, src)
		for _, i := range is {
			exact[i] = res.Dist[qs[i].V]
		}
	}

	stretches := make([]float64, len(qs))
	for i := range qs {
		if exact[i] <= 0 || math.IsInf(exact[i], 1) {
			t.Fatalf("%s: pair (%d,%d) has exact distance %v", name, qs[i].U, qs[i].V, exact[i])
		}
		ratio := mins[i] / exact[i]
		if ratio < 1-1e-9 {
			t.Fatalf("%s: dominance violated: Min(%d,%d)=%v < dist_G=%v (ratio %v)",
				name, qs[i].U, qs[i].V, mins[i], exact[i], ratio)
		}
		stretches[i] = ratio
	}
	sort.Float64s(stretches)
	median := stretches[len(stretches)/2]
	bound := stretchBoundC * math.Log2(float64(n))
	t.Logf("%s: n=%d K=%d pairs=%d median stretch %.2f (pinned bound %.2f), p90 %.2f, max %.2f",
		name, n, e.idx.NumTrees(), len(qs), median, bound, stretches[len(stretches)*9/10], stretches[len(stretches)-1])
	if median > bound {
		t.Fatalf("%s: median min-stretch %.2f exceeds pinned %.1f·log₂(%d) = %.2f",
			name, median, stretchBoundC, n, bound)
	}
}

// TestStatisticalStretchDirectSampler checks dominance and the pinned
// median bound for ensembles drawn by the direct (exact-metric LE list)
// sampler on two graph families.
func TestStatisticalStretchDirectSampler(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
		make func(rng *par.RNG) *graph.Graph
		k    int
	}{
		{"random128", 101, func(rng *par.RNG) *graph.Graph { return graph.RandomConnected(128, 512, 8, rng) }, 8},
		{"grid10x10", 103, func(rng *par.RNG) *graph.Graph { return graph.GridGraph(10, 10, 4, rng) }, 6},
	} {
		rng := par.NewRNG(tc.seed)
		g := tc.make(rng)
		e, err := SampleEnsemble(tc.k, func() (*Embedding, error) { return SampleOnGraph(g, rng, nil) })
		if err != nil {
			t.Fatal(err)
		}
		checkEnsembleStretch(t, tc.name, g, e, par.NewRNG(tc.seed+1), 300)
	}
}

// TestStatisticalStretchPipeline runs the same checks through the full
// Theorem 7.9 pipeline (hop set → H → oracle → trees) via the Embedder —
// the configuration the paper's guarantee actually speaks about. H's
// (1+ε̂)-slack distances still dominate dist_G, so dominance must hold here
// too. Skipped in -short mode: the pipeline build costs a few seconds.
func TestStatisticalStretchPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline ensemble is slow; run without -short")
	}
	rng := par.NewRNG(211)
	g := graph.RandomConnected(128, 512, 8, rng)
	emb, err := NewEmbedder(g, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	e, err := emb.SampleEnsemble(8)
	if err != nil {
		t.Fatal(err)
	}
	checkEnsembleStretch(t, "pipeline128", g, e, par.NewRNG(212), 300)
}

// TestExpectedStretchPerPair pins the FRT guarantee itself rather than a
// proxy: for every sampled pair, the stretch averaged over 64 independent
// trees of the direct sampler — an estimate of the per-pair expectation
// E[d_T(u,v)]/dist_G(u,v) — stays below 8·log₂ n. Observed worst pairs are
// 2.9–4.0·log₂ n on these seeds, so the constant leaves ~2× headroom while
// an Ω(n^ε) stretch regression fails at once.
func TestExpectedStretchPerPair(t *testing.T) {
	const trees, pairs, c = 64, 200, 8.0
	for _, tc := range []struct {
		name string
		seed uint64
		make func(rng *par.RNG) *graph.Graph
	}{
		{"random128", 301, func(rng *par.RNG) *graph.Graph { return graph.RandomConnected(128, 512, 8, rng) }},
		{"grid10x10", 303, func(rng *par.RNG) *graph.Graph { return graph.GridGraph(10, 10, 4, rng) }},
		{"random256", 305, func(rng *par.RNG) *graph.Graph { return graph.RandomConnected(256, 1024, 8, rng) }},
	} {
		rng := par.NewRNG(tc.seed)
		g := tc.make(rng)
		stats, err := MeasureStretch(g, func() (*Embedding, error) { return SampleOnGraph(g, rng, nil) }, trees, pairs, rng)
		if err != nil {
			t.Fatal(err)
		}
		logn := math.Log2(float64(g.N()))
		t.Logf("%s: n=%d worst per-pair expected stretch %.2f = %.2f·log₂ n, mean %.2f",
			tc.name, g.N(), stats.MaxAvgStretch, stats.MaxAvgStretch/logn, stats.AvgStretch)
		if stats.MinRatio < 1-1e-9 {
			t.Fatalf("%s: dominance violated: min ratio %v", tc.name, stats.MinRatio)
		}
		if stats.MaxAvgStretch > c*logn {
			t.Fatalf("%s: per-pair expected stretch %.2f exceeds %.0f·log₂(%d) = %.2f",
				tc.name, stats.MaxAvgStretch, c, g.N(), c*logn)
		}
	}
}
