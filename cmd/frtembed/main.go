// Command frtembed samples FRT metric tree embeddings from a weighted
// graph: it reads (or generates) a graph, draws -trees trees from the FRT
// distribution through the shared-pipeline Embedder (hop set, simulated
// graph H, and oracle built once; trees sampled concurrently), and reports
// per-tree stretch and ensemble min-stretch statistics and, optionally, the
// first tree itself.
//
// Usage:
//
//	frtembed -gen random -n 256 -m 1024 -trees 5 -pairs 50
//	frtembed -in graph.txt -trees 3 -print-tree
//
// Graph files use the edge-list format of internal/graph (p/e lines).
package main

import (
	"flag"
	"fmt"
	"os"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

func main() {
	var (
		in        = flag.String("in", "", "read graph from file (edge-list format)")
		gen       = flag.String("gen", "random", "generator: random | grid | path | cycle | geometric | lollipop | powerlaw")
		n         = flag.Int("n", 256, "generated graph size")
		m         = flag.Int("m", 0, "generated edge count (random generator; default 4n)")
		seed      = flag.Uint64("seed", 1, "random seed")
		trees     = flag.Int("trees", 3, "number of trees to sample")
		pairs     = flag.Int("pairs", 50, "node pairs for stretch measurement")
		exact     = flag.Bool("exact", false, "use the exact-metric baseline sampler instead of the oracle pipeline")
		printTree = flag.Bool("print-tree", false, "print the first sampled tree")
		treeOut   = flag.String("tree-out", "", "write the first sampled tree to this file")
	)
	flag.Parse()

	if *trees < 1 {
		fmt.Fprintln(os.Stderr, "error: -trees must be ≥ 1")
		os.Exit(1)
	}
	rng := par.NewRNG(*seed)
	g, err := graph.Load(*in, *gen, *n, *m, rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: n=%d m=%d connected=%v\n", g.N(), g.M(), g.Connected())

	// Sample all trees up front: the oracle pipeline goes through the
	// Embedder, which builds the hop set, H, and the oracle once and draws
	// the trees concurrently; the exact baseline stays per-tree.
	var embs []*frt.Embedding
	var err2 error
	if *exact {
		for i := 0; i < *trees; i++ {
			emb, err := frt.SampleExact(g, rng, nil)
			if err != nil {
				err2 = err
				break
			}
			embs = append(embs, emb)
		}
	} else {
		var e *frt.Embedder
		e, err2 = frt.NewEmbedder(g, frt.Options{RNG: rng})
		if err2 == nil {
			embs, err2 = e.SampleEmbeddings(*trees)
		}
	}
	if err2 != nil {
		fmt.Fprintln(os.Stderr, "error:", err2)
		os.Exit(1)
	}
	var first *frt.Embedding
	if len(embs) > 0 {
		first = embs[0]
	}
	next := 0
	sampler := func() (*frt.Embedding, error) {
		emb := embs[next]
		next++
		return emb, nil
	}
	stats, err := frt.MeasureStretch(g, sampler, *trees, *pairs, rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	ensemble := &frt.Ensemble{Trees: make([]*frt.Tree, len(embs))}
	for i, emb := range embs {
		ensemble.Trees[i] = emb.Tree
	}
	estats := ensemble.Evaluate(g, *pairs, rng)
	fmt.Printf("trees=%d pairs=%d\n", stats.Trees, stats.Pairs)
	fmt.Printf("avg stretch        %.3f\n", stats.AvgStretch)
	fmt.Printf("max avg stretch    %.3f\n", stats.MaxAvgStretch)
	fmt.Printf("max single stretch %.3f\n", stats.MaxStretch)
	fmt.Printf("min ratio          %.3f (must be ≥ 1)\n", stats.MinRatio)
	fmt.Printf("ensemble min-stretch avg %.3f max %.3f dominance=%v\n",
		estats.AvgMinStretch, estats.MaxMinStretch, estats.DominanceOK)
	if first != nil {
		fmt.Printf("first tree: %d tree nodes, depth %d, β=%.3f, oracle iterations %d\n",
			first.Tree.NumNodes(), first.Tree.Depth(), first.Tree.Beta, first.Iterations)
		if *printTree {
			printTreeOut(first.Tree)
		}
		if *treeOut != "" {
			f, err := os.Create(*treeOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			if err := frt.WriteTree(f, first.Tree); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Printf("tree written to %s\n", *treeOut)
		}
	}
}

func printTreeOut(t *frt.Tree) {
	fmt.Println("tree (node parent level center edgeWeight):")
	for u := 0; u < t.NumNodes(); u++ {
		fmt.Printf("  %d %d %d %d %g\n", u, t.Parent[u], t.Level[u], t.Center[u], t.EdgeWeight[u])
	}
	fmt.Println("leaves (graphNode -> treeNode):")
	for v, leaf := range t.Leaf {
		fmt.Printf("  %d -> %d\n", v, leaf)
	}
}
