package simgraph_test

import (
	"math"
	"slices"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
)

// TestOracleDoesNotMutateInputs pins the aliasing contract of the oracle
// with pure filters: RunToFixpoint and Run, with DistMapModule under the LE
// filter and in StaircaseFixpoint's configuration (StaircaseModule under
// Staircase), leave every map of a storage-sharing input vector bitwise
// unchanged. The inputs are the singletons of one SingletonStates block with
// one map, cut by both filters, placed at every seventh node instead.
func TestOracleDoesNotMutateInputs(t *testing.T) {
	rng := par.NewRNG(41)
	g := graph.RandomConnected(60, 180, 8, rng)
	h := simgraph.Build(hopset.DefaultSkeleton(g, rng, nil), 0, rng)
	n := g.N()
	// Rank v = v, so the node-keyed inputs are rank-keyed too and both
	// configurations compute LE lists.
	order := &frt.Order{Rank: make([]uint64, n)}
	for v := range order.Rank {
		order.Rank[v] = uint64(v)
	}
	for _, cfg := range []struct {
		name   string
		module semiring.Aggregator[float64, semiring.DistMap]
		filter semiring.Filter[semiring.DistMap]
	}{
		{"le", semiring.DistMapModule{}, order.Filter()},
		{"staircase-fixpoint", semiring.StaircaseModule{}, semiring.Staircase},
	} {
		o := &simgraph.Oracle{H: h, Module: cfg.module}
		for _, run := range []struct {
			name string
			run  func(x0 []semiring.DistMap)
		}{
			{"RunToFixpoint", func(x0 []semiring.DistMap) { o.RunToFixpoint(x0, cfg.filter, simgraph.MaxIters(n)) }},
			{"Run", func(x0 []semiring.DistMap) { o.Run(x0, cfg.filter, 3) }},
		} {
			block := semiring.SingletonStates(n)
			m := semiring.FromEntries(semiring.Entry{Node: 1, Dist: 3}, semiring.Entry{Node: 4, Dist: 5}, semiring.Entry{Node: 7, Dist: 0.5})
			x0 := slices.Clone(block)
			for v := 0; v < n; v += 7 {
				x0[v] = m
			}
			watched := append(block, m)
			before := make([]semiring.DistMap, len(watched))
			for i, x := range watched {
				before[i] = x.Clone()
			}
			run.run(x0)
			for i := range watched {
				if !slices.EqualFunc(watched[i].Entries(), before[i].Entries(), func(a, b semiring.Entry) bool {
					return a.Node == b.Node && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
				}) {
					t.Fatalf("%s/%s wrote input map %d: %v, was %v", cfg.name, run.name, i, watched[i], before[i])
				}
			}
		}
	}
}
