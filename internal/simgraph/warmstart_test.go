package simgraph_test

import (
	"fmt"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
)

// coldFixpoint iterates the cold reference Iterate until the states stop
// changing, returning them with the iteration count RunToFixpoint must
// report (the confirming iteration included).
func coldFixpoint(t *testing.T, h *simgraph.H, x0 []semiring.DistMap, filter semiring.Filter[semiring.DistMap]) ([]semiring.DistMap, int) {
	t.Helper()
	o := simgraph.NewOracle(h, nil)
	x := o.Run(x0, filter, 0) // zero iterations: just the filtered x0
	for it := 1; it <= simgraph.MaxIters(h.N()); it++ {
		next := o.Iterate(x, filter)
		if statesEqual(x, next) {
			return next, it
		}
		x = next
	}
	t.Fatalf("cold reference did not converge within %d iterations", simgraph.MaxIters(h.N()))
	return nil, 0
}

func statesEqual(x, y []semiring.DistMap) bool {
	var mod semiring.DistMapModule
	for v := range x {
		if !mod.Equal(x[v], y[v]) {
			return false
		}
	}
	return true
}

func checkSame(t *testing.T, got []semiring.DistMap, gotIts int, want []semiring.DistMap, wantIts int) {
	t.Helper()
	if gotIts != wantIts {
		t.Fatalf("RunToFixpoint took %d iterations, cold reference %d", gotIts, wantIts)
	}
	var mod semiring.DistMapModule
	for v := range want {
		if !mod.Equal(got[v], want[v]) {
			t.Fatalf("node %d: RunToFixpoint %v, cold reference %v", v, got[v], want[v])
		}
	}
}

// withHopBound returns G itself as a hop set with hop bound d, far below
// what its shortest paths need: many level runs then stop at d unconverged.
func withHopBound(g *graph.Graph, d int) *hopset.Result {
	hs := hopset.None(g)
	hs.D = d
	return hs
}

// TestRunToFixpointMatchesCold is the differential test of the warm-started
// level fixpoints: RunToFixpoint must return the states of the cold
// reference node for node, in the same number of iterations, for the LE
// filter and a top-k filter, on graphs of different shape, with Λ = 0, and
// with hop bounds so small that some level runs, cold and warm, stop at d
// unconverged and must restart cold while others resume from a fixpoint.
func TestRunToFixpointMatchesCold(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomConnected(96, 300, 8, par.NewRNG(21))},
		{"grid", graph.GridGraph(9, 11, 4, par.NewRNG(22))},
		{"chunglu", graph.ChungLu(120, 4, 2.5, 8, par.NewRNG(23))},
	}
	hopsets := []struct {
		name  string
		build func(g *graph.Graph) *hopset.Result
	}{
		{"skeleton", func(g *graph.Graph) *hopset.Result { return hopset.DefaultSkeleton(g, par.NewRNG(24), nil) }},
		{"d=4", func(g *graph.Graph) *hopset.Result { return withHopBound(g, 4) }},
		{"d=8", func(g *graph.Graph) *hopset.Result { return withHopBound(g, 8) }},
	}
	for _, gc := range graphs {
		n := gc.g.N()
		for _, hc := range hopsets {
			h := simgraph.Build(hc.build(gc.g), 0, par.NewRNG(25))
			flat := *h // Λ = 0: every node on level 0
			flat.Level, flat.Lambda = make([]int, n), 0
			order := frt.NewOrder(n, par.NewRNG(26))
			filters := []struct {
				name   string
				filter semiring.Filter[semiring.DistMap]
			}{
				{"le", order.Filter()},
				{"top3", semiring.TopKFilter(3, semiring.Inf, nil)},
			}
			for _, hh := range []*simgraph.H{h, &flat} {
				for _, fc := range filters {
					t.Run(fmt.Sprintf("%s/%s/lambda=%d/%s", gc.name, hc.name, hh.Lambda, fc.name), func(t *testing.T) {
						x0 := frt.InitialStates(n)
						want, wantIts := coldFixpoint(t, hh, x0, fc.filter)
						o := simgraph.NewOracle(hh, nil)
						got, gotIts := o.RunToFixpoint(x0, fc.filter, simgraph.MaxIters(n))
						checkSame(t, got, gotIts, want, wantIts)
					})
				}
			}
		}
	}
}

// TestRunToFixpointReuse pins that the warm state does not outlive a call:
// one oracle reused for two orders must answer like two fresh oracles.
func TestRunToFixpointReuse(t *testing.T) {
	rng := par.NewRNG(31)
	g := graph.RandomConnected(80, 240, 8, rng)
	h := simgraph.Build(hopset.DefaultSkeleton(g, rng, nil), 0, rng)
	n := g.N()
	reused := simgraph.NewOracle(h, nil)
	for _, seed := range []uint64{32, 33} {
		order := frt.NewOrder(n, par.NewRNG(seed))
		fresh := simgraph.NewOracle(h, nil)
		want, wantIts := fresh.RunToFixpoint(frt.InitialStates(n), order.Filter(), simgraph.MaxIters(n))
		got, gotIts := reused.RunToFixpoint(frt.InitialStates(n), order.Filter(), simgraph.MaxIters(n))
		checkSame(t, got, gotIts, want, wantIts)
	}
}

// TestStaircaseFixpointMatchesDistMapModule runs the Embedder's oracle
// configuration — StaircaseFixpoint: rank-keyed singletons, the Staircase
// filter, and the fused semiring.StaircaseModule for the level runs and the
// cross-level fold — against the same fixpoint through the default
// DistMapModule with Staircase as a plain filter, and against the cold
// reference. Lists, iteration counts and tracker work must be identical, on
// the graph shapes and hop bounds of TestRunToFixpointMatchesCold (so some
// level runs stop unconverged and restart cold), with and without Λ = 0.
func TestStaircaseFixpointMatchesDistMapModule(t *testing.T) {
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomConnected(96, 300, 8, par.NewRNG(21))},
		{"chunglu", graph.ChungLu(120, 4, 2.5, 8, par.NewRNG(23))},
	} {
		n := gc.g.N()
		for _, hs := range []*hopset.Result{hopset.DefaultSkeleton(gc.g, par.NewRNG(24), nil), withHopBound(gc.g, 4)} {
			h := simgraph.Build(hs, 0, par.NewRNG(25))
			flat := *h
			flat.Level, flat.Lambda = make([]int, n), 0
			order := frt.NewOrder(n, par.NewRNG(26))
			key := make([]semiring.NodeID, n)
			for v, r := range order.Rank {
				key[v] = semiring.NodeID(r)
			}
			for _, hh := range []*simgraph.H{h, &flat} {
				t.Run(fmt.Sprintf("%s/d=%d/lambda=%d", gc.name, hs.D, hh.Lambda), func(t *testing.T) {
					x0 := semiring.SingletonStatesKeyed(key)
					want, wantIts := coldFixpoint(t, hh, x0, semiring.Staircase)
					refTr, fusedTr := &par.Tracker{}, &par.Tracker{}
					ref, refIts := simgraph.NewOracle(hh, refTr).RunToFixpoint(x0, semiring.Staircase, simgraph.MaxIters(n))
					checkSame(t, ref, refIts, want, wantIts)
					got, gotIts := simgraph.StaircaseFixpoint(hh, key, fusedTr, simgraph.MaxIters(n))
					checkSame(t, got, gotIts, want, wantIts)
					if fusedTr.Work() != refTr.Work() || fusedTr.Depth() != refTr.Depth() {
						t.Fatalf("fused charged %d/%d work/depth, DistMapModule %d/%d",
							fusedTr.Work(), fusedTr.Depth(), refTr.Work(), refTr.Depth())
					}
				})
			}
		}
	}
}
