package kmedian

// Differential pin of the k-median pipeline against the reference copies in
// reference_test.go: candidate sampling on the forest fire must draw the same
// distances as the top-1 source detection it replaced, and the DP's per-child
// choice tables must backtrack to the same centers, in the same order, as the
// copied allocation chains. Solve's Centers, Cost bits and Candidates must
// match for every tree shard a router can ask for.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// diffGraphs are the pin's graphs: random weights, a heavy-tailed degree
// sequence, and a unit-weight grid whose many equal distances exercise the
// DP's and the sampler's tie-breaking.
func diffGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomConnected(192, 640, 9, par.NewRNG(301))},
		{"chunglu", graph.ChungLu(192, 6, 2.5, 20, par.NewRNG(302))},
		{"grid", graph.GridGraph(12, 16, 1, par.NewRNG(303))},
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestForestFireIsNearestDist: the unthresholded forest fire, the top-1
// source detection and a multi-source Dijkstra sweep agree bitwise on the
// distance to the nearest source.
func TestForestFireIsNearestDist(t *testing.T) {
	for _, tc := range diffGraphs() {
		rng := par.NewRNG(304)
		for _, size := range []int{1, 2, 5, 24, tc.g.N()} {
			sources := make([]graph.Node, size)
			for i := range sources {
				sources[i] = graph.Node(rng.Intn(tc.g.N()))
			}
			got := mbf.ForestFire(tc.g, sources, semiring.Inf, nil)
			if want := refNearestDist(tc.g, sources, nil); !sameBits(got, want) {
				t.Fatalf("%s, %d sources: forest fire differs from source detection", tc.name, size)
			}
			if want, _ := graph.MultiSourceDijkstra(tc.g, sources); !sameBits(got, want) {
				t.Fatalf("%s, %d sources: forest fire differs from multi-source Dijkstra", tc.name, size)
			}
		}
	}
}

// TestTreeKMedianMatchesReference runs the DP and its reference on every
// tree of a K=4 ensemble, with every leaf allowed and with the sampled
// candidates allowed, under unit and integer client weights.
func TestTreeKMedianMatchesReference(t *testing.T) {
	for _, tc := range diffGraphs() {
		n := tc.g.N()
		emb, err := frt.NewEmbedder(tc.g, frt.Options{RNG: par.NewRNG(305)})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := emb.SampleEnsemble(4)
		if err != nil {
			t.Fatal(err)
		}
		unit, mixed := make([]float64, n), make([]float64, n)
		wrng := par.NewRNG(306)
		for v := range unit {
			unit[v], mixed[v] = 1, float64(1+wrng.Intn(4))
		}
		for _, k := range []int{1, 2, 8, n / 4} {
			allowed := make([]bool, n)
			for _, q := range refSampleCandidates(tc.g, k, par.NewRNG(uint64(307+k)), nil) {
				allowed[q] = true
			}
			for ti, tr := range ens.Trees {
				for _, a := range [][]bool{nil, allowed} {
					for _, w := range [][]float64{unit, mixed} {
						got, want := TreeKMedian(tr, w, a, k), refTreeKMedian(tr, w, a, k)
						if !slices.Equal(got, want) {
							t.Fatalf("%s k=%d tree %d (allowed nil: %v): centers %v, reference %v",
								tc.name, k, ti, a == nil, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSolveMatchesReference compares Solve with the reference pipeline on
// the whole ensemble and on the shards fanKMedian hands its workers: one
// tree each, and two halves.
func TestSolveMatchesReference(t *testing.T) {
	const trees = 4
	for _, tc := range diffGraphs() {
		n := tc.g.N()
		emb, err := frt.NewEmbedder(tc.g, frt.Options{RNG: par.NewRNG(308)})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := emb.SampleEnsemble(trees)
		if err != nil {
			t.Fatal(err)
		}
		shards := [][2]int{{0, 0}, {0, 2}, {2, 2}}
		for ti := 0; ti < trees; ti++ {
			shards = append(shards, [2]int{ti, 1})
		}
		for _, k := range []int{1, 2, 8, n / 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, sh := range shards {
					name := fmt.Sprintf("%s k=%d seed=%d shard=%v", tc.name, k, seed, sh)
					opts := func() Options {
						return Options{RNG: par.NewRNG(seed), Ensemble: ens, FirstTree: sh[0], Trees: sh[1]}
					}
					got, err := Solve(tc.g, k, opts())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := refSolve(tc.g, k, opts())
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: got centers %v cost %v, reference %v cost %v",
							name, got.Centers, got.Cost, want.Centers, want.Cost)
					}
				}
			}
		}
	}
}
