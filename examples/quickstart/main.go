// Quickstart: sample a low-stretch metric tree embedding of a weighted
// graph and compare tree distances with true shortest-path distances.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"parmbf"
)

func main() {
	// A sparse random graph: 256 nodes, 1024 edges, weights in [1, 10].
	g := parmbf.RandomConnected(256, 1024, 10, parmbf.NewRNG(7))
	fmt.Printf("input graph: n=%d m=%d\n", g.N(), g.M())

	// Sample one tree from the FRT distribution with the paper's
	// polylog-depth pipeline. The tree's node set contains all graph nodes
	// as leaves; its distances dominate the graph's and exceed them only by
	// O(log n) in expectation.
	emb, err := parmbf.SampleTree(g, 42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sampled tree: %d tree nodes, depth %d, β=%.3f\n",
		emb.Tree.NumNodes(), emb.Tree.Depth(), emb.Tree.Beta)
	fmt.Printf("oracle iterations to LE-list fixpoint: %d (≈ SPD(H) ∈ O(log²n))\n\n", emb.Iterations)

	// Spot-check a few pairs against exact distances.
	exact := parmbf.ExactAPSP(g)
	fmt.Println("pair        dist_G   dist_T   ratio")
	for _, p := range [][2]parmbf.Node{{0, 255}, {1, 100}, {42, 200}, {7, 8}} {
		dg := exact.At(int(p[0]), int(p[1]))
		dt := emb.Tree.Dist(p[0], p[1])
		fmt.Printf("(%3d,%3d)  %7.2f  %7.2f  %5.2f\n", p[0], p[1], dg, dt, dt/dg)
	}

	// Average the stretch over several trees: the expectation is what the
	// O(log n) bound speaks about.
	stats, err := parmbf.MeasureStretch(g, func() (*parmbf.Embedding, error) {
		return parmbf.SampleTree(g, parmbf.NewRNG(99).Uint64())
	}, 1, 100, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nover %d random pairs: avg stretch %.2f, min ratio %.2f (≥ 1: tree dominates)\n",
		stats.Pairs, stats.AvgStretch, stats.MinRatio)
}
