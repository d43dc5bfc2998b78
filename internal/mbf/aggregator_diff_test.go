package mbf

// Differential property tests of the engine's aggregation fast path: on
// random graphs, a Runner whose module implements semiring.Aggregator must
// produce exactly the states of the same Runner with the fast path hidden
// (forcing the generic Add/SMul fold of Definition 2.11). Runs in the short
// and -race tiers — the fast path is also the code that shares pooled
// scratch between workers.

import (
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// foldOnly hides a module's Aggregate method, forcing the generic fold.
type foldOnly[S, M any] struct {
	semiring.Semimodule[S, M]
}

func diffGraph(seed uint64) *graph.Graph {
	return graph.RandomConnected(60, 180, 8, par.NewRNG(seed))
}

// runBoth executes h iterations with the fast path and with the fold and
// compares the state vectors node-wise after every iteration.
func runBoth[S, M any](t *testing.T, fast *Runner[S, M], x0 []M, h int) {
	t.Helper()
	if _, ok := fast.Module.(semiring.Aggregator[S, M]); !ok {
		t.Fatalf("module %T does not implement the fast path; test is vacuous", fast.Module)
	}
	slow := &Runner[S, M]{
		Graph:   fast.Graph,
		Module:  foldOnly[S, M]{fast.Module},
		Filter:  fast.Filter,
		Weight:  fast.Weight,
		Size:    fast.Size,
		Tracker: nil,
	}
	xf := append([]M(nil), x0...)
	xs := append([]M(nil), x0...)
	for i := range xf {
		xf[i] = fast.filter(xf[i])
		xs[i] = slow.filter(xs[i])
	}
	for it := 0; it < h; it++ {
		xf = fast.Iterate(xf)
		xs = slow.Iterate(xs)
		for v := range xf {
			if !fast.Module.Equal(xf[v], xs[v]) {
				t.Fatalf("iteration %d node %d: fast %v != fold %v", it, v, xf[v], xs[v])
			}
		}
	}
}

func TestFastPathMatchesFoldDistMap(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := diffGraph(seed)
		sources := func(v graph.Node) bool { return v%2 == 0 }
		r := &Runner[float64, semiring.DistMap]{
			Graph:         g,
			Module:        semiring.DistMapModule{},
			Filter:        semiring.TopKFilter(4, 40, sources),
			FilterInPlace: semiring.TopKFilterInPlace(4, 40, sources),
			Weight:        MinPlusWeight,
		}
		x0 := make([]semiring.DistMap, g.N())
		for v := range x0 {
			if sources(graph.Node(v)) {
				x0[v] = semiring.SingletonDist(graph.Node(v), 0)
			}
		}
		runBoth(t, r, x0, 6)
	}
}

func TestFastPathMatchesFoldDistMapUnfiltered(t *testing.T) {
	g := diffGraph(4)
	r := &Runner[float64, semiring.DistMap]{
		Graph:  g,
		Module: semiring.DistMapModule{},
		Weight: MinPlusWeight,
	}
	x0 := make([]semiring.DistMap, g.N())
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	runBoth(t, r, x0, 4)
}

// TestFastPathMatchesFoldRouteMap runs the next-hop tables unfiltered and
// under the top-k projection RoutingTables uses, which Aggregate applies to
// its own merge (the in-place variant) while the fold applies the pure one.
func TestFastPathMatchesFoldRouteMap(t *testing.T) {
	for _, seed := range []uint64{11, 12, 13} {
		for _, k := range []int{0, 4} {
			g := diffGraph(seed)
			r := &Runner[semiring.Hop, semiring.RouteMap]{
				Graph:         g,
				Module:        semiring.RouteMapModule{},
				Filter:        routeTopK(k),
				FilterInPlace: routeTopKInPlace(k),
				Weight:        HopWeight,
			}
			x0 := make([]semiring.RouteMap, g.N())
			for v := range x0 {
				x0[v] = semiring.RouteMap{{Target: graph.Node(v), Dist: 0, Next: semiring.NoVia}}
			}
			runBoth(t, r, x0, 6)
		}
	}
}

// TestFastPathMatchesFoldRouteMapRestricted covers the sparse shape the
// routing application feeds the engine: only a subset of nodes seed a table,
// so most merges see empty self states and dead terms.
func TestFastPathMatchesFoldRouteMapRestricted(t *testing.T) {
	g := diffGraph(14)
	r := &Runner[semiring.Hop, semiring.RouteMap]{
		Graph:  g,
		Module: semiring.RouteMapModule{},
		Weight: HopWeight,
	}
	x0 := make([]semiring.RouteMap, g.N())
	for v := range x0 {
		if v%5 == 0 {
			x0[v] = semiring.RouteMap{{Target: graph.Node(v), Dist: 0, Next: semiring.NoVia}}
		}
	}
	runBoth(t, r, x0, 6)
}

// TestFastPathMatchesFoldScalars runs both scalar algebras unfiltered and
// under a threshold filter (the forest-fire projection (3.5) for min-plus,
// its width analogue for max-min), which Aggregate applies itself.
func TestFastPathMatchesFoldScalars(t *testing.T) {
	g := diffGraph(8)
	within := func(x float64) float64 {
		if x <= 12 {
			return x
		}
		return semiring.Inf
	}
	wide := func(x float64) float64 {
		if x >= 3 {
			return x
		}
		return 0
	}
	for _, filter := range []semiring.Filter[float64]{nil, within} {
		rmin := &Runner[float64, float64]{Graph: g, Module: semiring.MinPlusSelf{}, Filter: filter, Weight: MinPlusWeight}
		x0 := make([]float64, g.N())
		for v := range x0 {
			x0[v] = semiring.Inf
		}
		x0[0] = 0
		runBoth(t, rmin, x0, 8)
	}
	for _, filter := range []semiring.Filter[float64]{nil, wide} {
		rmax := &Runner[float64, float64]{Graph: g, Module: semiring.MaxMinSelf{}, Filter: filter, Weight: MaxMinWeight}
		w0 := make([]float64, g.N())
		w0[0] = semiring.Inf
		runBoth(t, rmax, w0, 8)
	}
}

// TestFastPathDoesNotMutateInput is the engine-level mutation fuzz: Iterate
// with pooled scratch and in-place filtering must leave the input state
// vector byte-identical — states are shared immutable values.
func TestFastPathDoesNotMutateInput(t *testing.T) {
	g := diffGraph(9)
	var mod semiring.DistMapModule
	r := &Runner[float64, semiring.DistMap]{
		Graph:         g,
		Module:        mod,
		Filter:        semiring.TopKFilter(3, semiring.Inf, nil),
		FilterInPlace: semiring.TopKFilterInPlace(3, semiring.Inf, nil),
		Weight:        MinPlusWeight,
	}
	x := make([]semiring.DistMap, g.N())
	for v := range x {
		x[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	for it := 0; it < 5; it++ {
		snapshot := make([]semiring.DistMap, len(x))
		for v := range x {
			snapshot[v] = x[v].Clone()
		}
		next := r.Iterate(x)
		for v := range x {
			if !mod.Equal(x[v], snapshot[v]) {
				t.Fatalf("iteration %d: Iterate mutated input state of node %d: %v != %v", it, v, x[v], snapshot[v])
			}
		}
		x = next
	}
}

// TestFastPathDeterministicAcrossMaxProcs pins scratch pooling against the
// parallel width: the same input must yield identical states whether one
// worker reuses a single scratch or many workers share the pool.
func TestFastPathDeterministicAcrossMaxProcs(t *testing.T) {
	g := diffGraph(10)
	build := func() ([]semiring.DistMap, *Runner[float64, semiring.DistMap]) {
		r := &Runner[float64, semiring.DistMap]{
			Graph:         g,
			Module:        semiring.DistMapModule{},
			Filter:        semiring.TopKFilter(4, semiring.Inf, nil),
			FilterInPlace: semiring.TopKFilterInPlace(4, semiring.Inf, nil),
			Weight:        MinPlusWeight,
		}
		x0 := make([]semiring.DistMap, g.N())
		for v := range x0 {
			x0[v] = semiring.SingletonDist(graph.Node(v), 0)
		}
		return x0, r
	}
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	var want []semiring.DistMap
	for _, procs := range []int{1, 4} {
		par.MaxProcs = procs
		x, r := build()
		got := r.Run(x, 5)
		if want == nil {
			want = got
			continue
		}
		for v := range got {
			if !r.Module.Equal(got[v], want[v]) {
				t.Fatalf("MaxProcs=%d node %d: %v != sequential %v", procs, v, got[v], want[v])
			}
		}
	}
}
