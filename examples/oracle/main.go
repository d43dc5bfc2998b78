// Oracle walkthrough: turn an FRT ensemble into a fast approximate
// distance oracle. The ensemble is sampled once through the shared
// pipeline, preprocessed into an OracleIndex, queried in batch, and
// round-tripped through the versioned snapshot format — the serving
// pattern behind cmd/parmbfd (build or -load, then answer /batch).
//
//	go run ./examples/oracle
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parmbf"
)

func main() {
	// A sparse random graph: 2048 nodes, 8192 edges.
	g := parmbf.RandomConnected(2048, 8192, 10, parmbf.NewRNG(7))
	fmt.Printf("input graph: n=%d m=%d\n", g.N(), g.M())

	// Sample K=8 independent trees with the direct on-graph sampler (cheap
	// at this size; swap in SampleEnsemble for the polylog-depth pipeline,
	// which is what cmd/parmbfd uses at startup).
	t0 := time.Now()
	ens := &parmbf.Ensemble{}
	for i := uint64(0); i < 8; i++ {
		emb, err := parmbf.SampleTreeOnGraph(g, 42+i)
		if err != nil {
			panic(err)
		}
		ens.Trees = append(ens.Trees, emb.Tree)
	}
	sampleTime := time.Since(t0)
	fmt.Printf("sampled %d trees in %v\n", len(ens.Trees), sampleTime.Round(time.Millisecond))

	// Index the ensemble: packed per-node ancestor words and prefix-weight
	// rows make every query a handful of word operations instead of a
	// pointer walk.
	t0 = time.Now()
	idx, err := ens.Index()
	if err != nil {
		panic(err)
	}
	fmt.Printf("indexed in %v (max depth %d)\n\n", time.Since(t0).Round(time.Millisecond), idx.MaxDepth())

	// A batch of 100k random pairs, answered three ways.
	rng := parmbf.NewRNG(99)
	pairs := make([]parmbf.Pair, 100_000)
	for i := range pairs {
		pairs[i] = parmbf.Pair{U: parmbf.Node(rng.Intn(g.N())), V: parmbf.Node(rng.Intn(g.N()))}
	}

	// 1. The parent-walk path: what each query cost before indexing.
	t0 = time.Now()
	walk := make([]float64, len(pairs))
	for i, p := range pairs {
		best := ens.Trees[0].Dist(p.U, p.V)
		for _, tr := range ens.Trees[1:] {
			if d := tr.Dist(p.U, p.V); d < best {
				best = d
			}
		}
		walk[i] = best
	}
	walkTime := time.Since(t0)

	// 2. The batched oracle: same answers, bitwise, from flat tables.
	t0 = time.Now()
	batched := idx.MinBatch(pairs, nil)
	batchTime := time.Since(t0)

	same := true
	for i := range pairs {
		if walk[i] != batched[i] {
			same = false
			break
		}
	}
	fmt.Printf("%-28s %10v  (%.0f pairs/s)\n", "parent-walk min:", walkTime.Round(time.Millisecond),
		float64(len(pairs))/walkTime.Seconds())
	fmt.Printf("%-28s %10v  (%.0f pairs/s)\n", "OracleIndex.MinBatch:", batchTime.Round(time.Millisecond),
		float64(len(pairs))/batchTime.Seconds())
	fmt.Printf("speedup %.1fx, results bitwise identical: %v\n\n",
		walkTime.Seconds()/batchTime.Seconds(), same)

	// 3. Quality: the oracle never under-estimates, and the min over trees
	// tracks the true distance within the expected O(log n) stretch.
	stats := ens.Evaluate(g, 500, parmbf.NewRNG(5))
	fmt.Printf("on %d random pairs: avg min-stretch %.2f, max %.2f, never under-estimates: %v\n\n",
		stats.Pairs, stats.AvgMinStretch, stats.MaxMinStretch, stats.DominanceOK)

	// 4. Snapshot persistence: what `parmbfd -save`/-load do. Sampling is
	// the expensive step; the snapshot amortises it away, and because
	// indexing is deterministic, the reloaded oracle answers bitwise
	// identically.
	dir, err := os.MkdirTemp("", "oracle-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "oracle.snap")
	meta := parmbf.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}
	t0 = time.Now()
	if err := parmbf.WriteSnapshotFile(path, ens, meta); err != nil {
		panic(err)
	}
	saveTime := time.Since(t0)
	t0 = time.Now()
	ens2, _, err := parmbf.ReadSnapshotFile(path)
	if err != nil {
		panic(err)
	}
	idx2, err := ens2.Index()
	if err != nil {
		panic(err)
	}
	loadTime := time.Since(t0)
	reloaded := idx2.MinBatch(pairs, nil)
	same = true
	for i := range pairs {
		if reloaded[i] != batched[i] {
			same = false
			break
		}
	}
	info, _ := os.Stat(path)
	fmt.Printf("snapshot: %d KB, saved in %v, load+reindex in %v (vs %v to resample)\n",
		info.Size()/1024, saveTime.Round(time.Millisecond), loadTime.Round(time.Millisecond),
		sampleTime.Round(time.Millisecond))
	fmt.Printf("reloaded oracle bitwise identical: %v\n", same)
}
