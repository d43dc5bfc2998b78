package frt

import (
	"sync"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// The oracle benchmark fixture is the acceptance workload of the query
// subsystem: an ensemble of K=16 trees on an n=4096 random graph, queried
// on a fixed batch of random pairs. Building it costs a few seconds, so all
// Oracle* benchmarks share one lazily built instance.
var oracleFix struct {
	once  sync.Once
	ens   *Ensemble
	idx   *OracleIndex
	pairs []Pair
	err   error
}

const oracleBenchPairs = 4096

func oracleFixture(b *testing.B) (*Ensemble, *OracleIndex, []Pair) {
	b.Helper()
	oracleFix.once.Do(func() {
		rng := par.NewRNG(1)
		g := graph.RandomConnected(4096, 16384, 8, rng)
		oracleFix.ens, oracleFix.err = sampleEnsemble(16, func() (*Embedding, error) {
			return SampleOnGraph(g, rng, nil)
		})
		if oracleFix.err != nil {
			return
		}
		oracleFix.idx, oracleFix.err = NewOracleIndex(oracleFix.ens.Trees)
		if oracleFix.err != nil {
			return
		}
		prng := par.NewRNG(2)
		oracleFix.pairs = make([]Pair, oracleBenchPairs)
		for i := range oracleFix.pairs {
			u := graph.Node(prng.Intn(g.N()))
			v := graph.Node(prng.Intn(g.N()))
			oracleFix.pairs[i] = Pair{U: u, V: v}
		}
	})
	if oracleFix.err != nil {
		b.Fatal(oracleFix.err)
	}
	return oracleFix.ens, oracleFix.idx, oracleFix.pairs
}

// BenchmarkOracleWalkMin4096 is the pre-index serving path: one lockstep
// parent walk per tree per pair (the old Ensemble.Min), over the fixed
// 4096-pair batch. ns/op is per batch.
func BenchmarkOracleWalkMin4096(b *testing.B) {
	ens, _, pairs := oracleFixture(b)
	out := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range pairs {
			out[j] = ens.minWalk(p.U, p.V)
		}
	}
	sinkFloats = out
}

// BenchmarkOracleIndexMinBatch4096 is the new serving path: the same batch
// through OracleIndex.MinBatch (packed merge-height words over one shared
// weight row per tree, parallelised by par.ForEach). The acceptance bar of the
// query subsystem is ≥ 10× over BenchmarkOracleWalkMin4096.
func BenchmarkOracleIndexMinBatch4096(b *testing.B) {
	_, idx, pairs := oracleFixture(b)
	out := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = idx.MinBatch(pairs, out)
	}
	sinkFloats = out
}

// BenchmarkOracleIndexMedianBatch4096 measures the pooled-scratch median
// path on the same batch.
func BenchmarkOracleIndexMedianBatch4096(b *testing.B) {
	_, idx, pairs := oracleFixture(b)
	out := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = idx.MedianBatch(pairs, out)
	}
	sinkFloats = out
}

// BenchmarkOracleIndexBuild4096 measures the preprocessing cost the index
// amortises: O(n·depth) per tree, 16 trees.
func BenchmarkOracleIndexBuild4096(b *testing.B) {
	ens, _, _ := oracleFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := NewOracleIndex(ens.Trees)
		if err != nil {
			b.Fatal(err)
		}
		sinkIndex = idx
	}
}

var (
	sinkFloats []float64
	sinkIndex  *OracleIndex
)
