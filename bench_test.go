package parmbf

// This file is the benchmark harness of the reproduction: one testing.B
// benchmark per experiment of package internal/experiments (E1–E12), per
// ablation (A1–A4),
// and for the extension experiment X1. Each bench regenerates its experiment's table; run with
//
//	go test -bench=. -benchmem
//
// and see cmd/benchall for the full-size tables.
// Benchmarks run the experiments in Quick mode (reduced sizes) so the suite
// completes in minutes; the printed rows carry the measured values.

import (
	"testing"

	"parmbf/internal/experiments"
)

func benchExperiment(b *testing.B, fn func(experiments.Config) *experiments.Table) {
	b.ReportAllocs()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		last = fn(experiments.Config{Seed: uint64(i) + 1, Quick: true})
	}
	if last != nil {
		b.Log("\n" + last.Format())
	}
}

// BenchmarkE1Stretch regenerates E1: expected stretch of the sampled FRT
// trees (Theorem 7.9: O(log n)).
func BenchmarkE1Stretch(b *testing.B) { benchExperiment(b, experiments.E1Stretch) }

// BenchmarkE2SPDH regenerates E2: SPD(H) ∈ O(log² n) (Theorem 4.5).
func BenchmarkE2SPDH(b *testing.B) { benchExperiment(b, experiments.E2SPDH) }

// BenchmarkE3HStretch regenerates E3: distance preservation of H
// (Theorem 4.5, eq. 4.16).
func BenchmarkE3HStretch(b *testing.B) { benchExperiment(b, experiments.E3HStretch) }

// BenchmarkE4LELists regenerates E4: LE-list lengths O(log n) (Lemma 7.6).
func BenchmarkE4LELists(b *testing.B) { benchExperiment(b, experiments.E4LELists) }

// BenchmarkE5WorkCrossover regenerates E5: work scaling of the oracle
// pipeline vs the exact-metric baseline (Theorem 7.9 vs [10]).
func BenchmarkE5WorkCrossover(b *testing.B) { benchExperiment(b, experiments.E5Work) }

// BenchmarkE6HopSet regenerates E6: the hop-set inequality (eq. 1.3).
func BenchmarkE6HopSet(b *testing.B) { benchExperiment(b, experiments.E6HopSet) }

// BenchmarkE7Metric regenerates E7: approximate metrics (Theorems 6.1/6.2).
func BenchmarkE7Metric(b *testing.B) { benchExperiment(b, experiments.E7Metric) }

// BenchmarkE8Spanner regenerates E8: Baswana–Sen size/stretch trade-off.
func BenchmarkE8Spanner(b *testing.B) { benchExperiment(b, experiments.E8Spanner) }

// BenchmarkE9Congest regenerates E9: Congest rounds, Khan et al. vs the
// skeleton algorithm (§8, Theorem 8.1).
func BenchmarkE9Congest(b *testing.B) { benchExperiment(b, experiments.E9Congest) }

// BenchmarkE10Zoo regenerates E10: the MBF-like algorithm zoo and the
// filter-induced work reduction (§2, §3).
func BenchmarkE10Zoo(b *testing.B) { benchExperiment(b, experiments.E10Zoo) }

// BenchmarkE11KMedian regenerates E11: k-median approximation
// (Theorem 9.2).
func BenchmarkE11KMedian(b *testing.B) { benchExperiment(b, experiments.E11KMedian) }

// BenchmarkE12BuyAtBulk regenerates E12: buy-at-bulk approximation
// (Theorem 10.2).
func BenchmarkE12BuyAtBulk(b *testing.B) { benchExperiment(b, experiments.E12BuyAtBulk) }

// BenchmarkE13Ensemble regenerates E13: shared-pipeline ensemble sampling vs
// the naive per-tree pipeline (§1's "repeat log(ε⁻¹) times" consumption).
func BenchmarkE13Ensemble(b *testing.B) { benchExperiment(b, experiments.E13Ensemble) }

// BenchmarkA1Filtering regenerates ablation A1: intermediate filtering on
// vs off (Corollary 2.17).
func BenchmarkA1Filtering(b *testing.B) { benchExperiment(b, experiments.A1Filtering) }

// BenchmarkA2LevelPenalty regenerates ablation A2: H's level penalty on vs
// off (Lemmas 4.3/4.4).
func BenchmarkA2LevelPenalty(b *testing.B) { benchExperiment(b, experiments.A2LevelPenalty) }

// BenchmarkA3HopSetChoice regenerates ablation A3: hop-set stage choice.
func BenchmarkA3HopSetChoice(b *testing.B) { benchExperiment(b, experiments.A3HopSetChoice) }

// BenchmarkA4SpannerPre regenerates ablation A4: spanner preprocessing
// (Corollary 7.11).
func BenchmarkA4SpannerPre(b *testing.B) { benchExperiment(b, experiments.A4SpannerPre) }

// BenchmarkSampleTree measures the end-to-end oracle pipeline on a single
// mid-size sparse graph (the headline operation of the library).
func BenchmarkSampleTree(b *testing.B) {
	g := RandomConnected(256, 1024, 8, NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleTree(g, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleTreeExact measures the exact-metric baseline on the same
// workload for direct comparison.
func BenchmarkSampleTreeExact(b *testing.B) {
	g := RandomConnected(256, 1024, 8, NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleTreeExact(g, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX1Steiner regenerates the extension experiment X1: Steiner trees
// via the embedding vs the metric-closure 2-approximation.
func BenchmarkX1Steiner(b *testing.B) { benchExperiment(b, experiments.X1Steiner) }
