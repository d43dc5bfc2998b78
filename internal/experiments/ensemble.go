package experiments

import (
	"fmt"
	"time"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// E13Ensemble measures the ensemble sampling path: the shared-pipeline
// Embedder (hop set, H, and oracle built once per graph, trees drawn
// concurrently) against the naive per-tree pipeline, across ensemble sizes.
// This is the repository's "make a hot path measurably faster" benchmark —
// the paper's headline use of the embedding is exactly this ensemble form
// ("repeating the process log(ε⁻¹) times and taking the best result", §1).
func E13Ensemble(cfg Config) *Table {
	rng := cfg.rng()
	t := &Table{
		ID:         "E13",
		Title:      "ensemble sampling: shared pipeline vs per-tree pipeline",
		PaperClaim: "K repetitions share one hop set and one H; only order and β are per-tree (§1, §7.1)",
		Header:     []string{"graph", "n", "trees", "naive", "shared", "speedup", "minStretchAvg", "dominance"},
	}
	n, reps := 96, 2
	counts := []int{1, 4, 8}
	if cfg.Quick {
		n = 64
		counts = []int{1, 8}
	}
	g := graph.RandomConnected(n, 4*n, 8, rng)
	for _, trees := range counts {
		// Both paths start from the same per-rep seed (so they construct the
		// same hop set and H); the best of `reps` runs is reported to damp
		// scheduling noise.
		var naive, shared time.Duration
		var ens *frt.Ensemble
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + uint64(1000*trees+rep)

			startNaive := time.Now()
			naiveRNG := par.NewRNG(seed)
			for range trees {
				if _, err := frt.Sample(g, frt.Options{RNG: naiveRNG}); err != nil {
					panic(err)
				}
			}
			if d := time.Since(startNaive); rep == 0 || d < naive {
				naive = d
			}

			startShared := time.Now()
			e, err := frt.NewEmbedder(g, frt.Options{RNG: par.NewRNG(seed)})
			if err != nil {
				panic(err)
			}
			sampled, err := e.SampleEnsemble(trees)
			if err != nil {
				panic(err)
			}
			if d := time.Since(startShared); rep == 0 || d < shared {
				shared = d
			}
			ens = sampled
		}

		stats := ens.Evaluate(g, 30, par.NewRNG(cfg.Seed+uint64(trees)))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("random-%d", n), d0(n), d0(trees),
			fmt.Sprintf("%.0fms", float64(naive.Microseconds())/1000),
			fmt.Sprintf("%.0fms", float64(shared.Microseconds())/1000),
			f2(float64(naive) / float64(shared)),
			f2(stats.AvgMinStretch),
			fmt.Sprintf("%v", stats.DominanceOK),
		})
	}
	t.Notes = "speedup grows with the tree count (pipeline construction amortised) and with " +
		"available cores (trees are sampled concurrently); dominance must stay true"
	return t
}
