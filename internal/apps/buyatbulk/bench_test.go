package buyatbulk

import (
	"sync"
	"testing"

	"parmbf/internal/apps/routing"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

var benchFix struct {
	once    sync.Once
	g       *graph.Graph
	ens     *frt.Ensemble
	demands []Demand
	cables  []CableType
	err     error
}

func benchFixture(b *testing.B) (*graph.Graph, *frt.Ensemble, []Demand, []CableType) {
	b.Helper()
	benchFix.once.Do(func() {
		rng := par.NewRNG(29)
		benchFix.g = graph.RandomConnected(1024, 4096, 8, rng)
		emb, err := frt.NewEmbedder(benchFix.g, frt.Options{RNG: rng})
		if err != nil {
			benchFix.err = err
			return
		}
		benchFix.ens, benchFix.err = emb.SampleEnsemble(4)
		if benchFix.err != nil {
			return
		}
		drng := par.NewRNG(31)
		benchFix.demands = make([]Demand, 256)
		for i := range benchFix.demands {
			benchFix.demands[i] = Demand{
				S:      graph.Node(drng.Intn(1024)),
				T:      graph.Node(drng.Intn(1024)),
				Amount: 1 + drng.Float64()*3,
			}
		}
		benchFix.cables = []CableType{{Capacity: 1, Cost: 1}, {Capacity: 4, Cost: 2.5}, {Capacity: 16, Cost: 6}}
	})
	if benchFix.err != nil {
		b.Fatal(benchFix.err)
	}
	return benchFix.g, benchFix.ens, benchFix.demands, benchFix.cables
}

// BenchmarkBuyAtBulkSolve is one full solve on a pre-drawn ensemble: the LCA
// flow accumulation over 256 demands, one routing fixpoint towards the union
// of the loaded parent centers, the cable loader per loaded edge, and the
// best-of-ensemble fold.
func BenchmarkBuyAtBulkSolve(b *testing.B) {
	g, ens, demands, cables := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(g, demands, cables, Options{Ensemble: ens})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Cost <= 0 {
			b.Fatal("non-positive cost")
		}
	}
}

var warmTables struct {
	once   sync.Once
	tables *routing.Tables
	err    error
}

// BenchmarkBuyAtBulkWarmTables is the served path: the same solve as
// BenchmarkBuyAtBulkSolve on routing tables built once beforehand (as a
// daemon caches them per serving version), so a request runs no fixpoint
// and indexes no tree.
func BenchmarkBuyAtBulkWarmTables(b *testing.B) {
	g, ens, demands, cables := benchFixture(b)
	warmTables.once.Do(func() {
		warmTables.tables, warmTables.err = routing.Build(g, routing.Options{Ensemble: ens})
	})
	if warmTables.err != nil {
		b.Fatal(warmTables.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveOnTables(warmTables.tables, demands, cables, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Cost <= 0 {
			b.Fatal("non-positive cost")
		}
	}
}
