package mbf

// Differential property tests of the frontier-driven sparse fixpoint engine:
// on random graphs, Stepper and RunToFixpoint must produce states identical
// (per Module.Equal, which is exact representation equality for every module
// here) to the dense definition — Iterate repeated until two consecutive
// vectors are equal — for every module and filter configuration and for
// every parallel width. Runs in the short and -race tiers — the sparse path
// shares the pooled aggregation scratch and the frontier bookkeeping between
// workers.

import (
	"slices"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// maxProcsVariants is the parallel-width sweep of the differential suite.
func maxProcsVariants() []int {
	return []int{1, 4, par.MaxProcs}
}

// denseFixpoint is the dense reference fixpoint loop: every iteration
// re-aggregates all nodes through Iterate and a full vector comparison
// detects convergence. It returns the states and the number of iterations
// performed, including the one that confirms the fixpoint.
func denseFixpoint[S, M any](r *Runner[S, M], x0 []M, maxIter int) ([]M, int) {
	x := r.filterAll(x0)
	for it := 1; it <= maxIter; it++ {
		next := r.Iterate(x)
		equal := true
		for v := range x {
			if !r.Module.Equal(x[v], next[v]) {
				equal = false
				break
			}
		}
		if equal {
			return next, it
		}
		x = next
	}
	return x, maxIter
}

// fixpointBoth runs the sparse and dense fixpoint loops from the same x0
// across the MaxProcs sweep and checks states and iteration counts agree
// everywhere.
func fixpointBoth[S, M any](t *testing.T, r *Runner[S, M], x0 []M, maxIter int) {
	t.Helper()
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	var wantStates []M
	wantIters := -1
	for _, procs := range maxProcsVariants() {
		par.MaxProcs = procs
		dense, dIters := denseFixpoint(r, x0, maxIter)
		sparse, sIters := r.RunToFixpoint(append([]M(nil), x0...), maxIter)
		if sIters != dIters {
			t.Fatalf("MaxProcs=%d: sparse ran %d iterations, dense %d", procs, sIters, dIters)
		}
		for v := range dense {
			if !r.Module.Equal(sparse[v], dense[v]) {
				t.Fatalf("MaxProcs=%d node %d: sparse %v != dense %v", procs, v, sparse[v], dense[v])
			}
		}
		if wantStates == nil {
			wantStates, wantIters = dense, dIters
			continue
		}
		if dIters != wantIters {
			t.Fatalf("MaxProcs=%d: %d iterations, MaxProcs=1 took %d", procs, dIters, wantIters)
		}
		for v := range dense {
			if !r.Module.Equal(dense[v], wantStates[v]) {
				t.Fatalf("MaxProcs=%d node %d: states differ across parallel widths", procs, v)
			}
		}
	}
}

func TestSparseFixpointMatchesDenseDistMap(t *testing.T) {
	sources := func(v graph.Node) bool { return v%2 == 0 }
	for _, cfg := range []struct {
		name   string
		module semiring.Semimodule[float64, semiring.DistMap]
		filter semiring.Filter[semiring.DistMap]
	}{
		{"unfiltered", semiring.DistMapModule{}, nil},
		{"top4", semiring.DistMapModule{}, semiring.TopKFilter(4, semiring.Inf, nil)},
		{"top3-d40-sources", semiring.DistMapModule{}, semiring.TopKFilter(3, 40, sources)},
		{"staircase-module", semiring.StaircaseModule{}, semiring.Staircase},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for _, seed := range []uint64{11, 12, 13} {
				g := diffGraph(seed)
				r := &Runner[float64, semiring.DistMap]{
					Graph:  g,
					Module: cfg.module,
					Filter: cfg.filter,
					Weight: MinPlusWeight,
				}
				x0 := make([]semiring.DistMap, g.N())
				for v := range x0 {
					if sources(graph.Node(v)) {
						x0[v] = semiring.SingletonDist(graph.Node(v), 0)
					}
				}
				fixpointBoth(t, r, x0, g.N())
			}
		})
	}
}

func TestSparseFixpointMatchesDenseWidthMap(t *testing.T) {
	for _, seed := range []uint64{14, 15} {
		g := diffGraph(seed)
		r := &Runner[float64, semiring.WidthMap]{
			Graph:  g,
			Module: semiring.WidthMapModule{},
			Weight: MaxMinWeight,
		}
		x0 := make([]semiring.WidthMap, g.N())
		for v := range x0 {
			if v%3 == 0 {
				x0[v] = semiring.WidthMap{{Node: graph.Node(v), Width: semiring.Inf}}
			}
		}
		fixpointBoth(t, r, x0, g.N())
	}
}

func TestSparseFixpointMatchesDenseBoolSet(t *testing.T) {
	g := diffGraph(16)
	r := &Runner[bool, []semiring.NodeID]{
		Graph:  g,
		Module: semiring.BoolSet{},
		Weight: BoolWeight,
	}
	x0 := make([][]semiring.NodeID, g.N())
	for v := range x0 {
		if v%4 == 0 {
			x0[v] = []semiring.NodeID{graph.Node(v)}
		}
	}
	fixpointBoth(t, r, x0, g.N())
}

func TestSparseFixpointMatchesDenseScalars(t *testing.T) {
	g := diffGraph(17)
	r := &Runner[float64, float64]{Graph: g, Module: semiring.MinPlusSelf{}, Weight: MinPlusWeight}
	x0 := make([]float64, g.N())
	for v := range x0 {
		x0[v] = semiring.Inf
	}
	x0[0] = 0
	fixpointBoth(t, r, x0, g.N())

	rw := &Runner[float64, float64]{Graph: g, Module: semiring.MaxMinSelf{}, Weight: MaxMinWeight}
	w0 := make([]float64, g.N())
	w0[0] = semiring.Inf
	fixpointBoth(t, rw, w0, g.N())
}

// TestIterateDeltaMatchesIterate drives a Stepper and Iterate step by step
// from the same start: after every step the sparse vector must equal the
// dense one node-for-node, and the stepper's frontier must be exactly the
// set of nodes whose state changed in that step.
func TestIterateDeltaMatchesIterate(t *testing.T) {
	g := diffGraph(18)
	r := &Runner[float64, semiring.DistMap]{
		Graph:  g,
		Module: semiring.DistMapModule{},
		Filter: semiring.TopKFilter(4, semiring.Inf, nil),
		Weight: MinPlusWeight,
	}
	xd := make([]semiring.DistMap, g.N())
	for v := range xd {
		if v%2 == 0 {
			xd[v] = r.filter(semiring.SingletonDist(graph.Node(v), 0))
		}
	}
	st := r.NewStepper(xd)
	defer st.Release()
	for step := 0; step < g.N(); step++ {
		next := r.Iterate(xd)
		st.Step()
		if st.Steps() != step+1 {
			t.Fatalf("step %d: stepper reports %d steps", step, st.Steps())
		}
		xs := st.States()
		inFrontier := make(map[graph.Node]bool, len(st.frontier))
		for _, v := range st.frontier {
			inFrontier[v] = true
		}
		done := true
		for v := range next {
			if !r.Module.Equal(next[v], xs[v]) {
				t.Fatalf("step %d node %d: sparse %v != dense %v", step, v, xs[v], next[v])
			}
			changed := !r.Module.Equal(next[v], xd[v])
			if changed {
				done = false
			}
			if changed != inFrontier[graph.Node(v)] {
				t.Fatalf("step %d node %d: changed=%v but frontier membership=%v",
					step, v, changed, inFrontier[graph.Node(v)])
			}
		}
		xd = next
		if done {
			if !st.Done() {
				t.Fatalf("fixpoint reached but frontier %v not empty", st.frontier)
			}
			return
		}
	}
	t.Fatal("no fixpoint within n steps")
}

// TestRunToFixpointCountsIterationsPerformed pins the off-by-one fix on a
// graph with known SPD: the path P_n needs SPD = n−1 state-changing
// iterations from one end plus the iteration that confirms the fixpoint, so
// both engines must report n iterations performed.
func TestRunToFixpointCountsIterationsPerformed(t *testing.T) {
	const n = 12
	g := graph.PathGraph(n, 1)
	mk := func() (*Runner[float64, float64], []float64) {
		r := &Runner[float64, float64]{Graph: g, Module: semiring.MinPlusSelf{}, Weight: MinPlusWeight}
		x0 := make([]float64, n)
		for v := range x0 {
			x0[v] = semiring.Inf
		}
		x0[0] = 0
		return r, x0
	}
	r, x0 := mk()
	if _, iters := r.RunToFixpoint(x0, 100); iters != n {
		t.Fatalf("sparse: %d iterations, want %d = SPD+1", iters, n)
	}
	r, x0 = mk()
	if _, iters := denseFixpoint(r, x0, 100); iters != n {
		t.Fatalf("dense: %d iterations, want %d = SPD+1", iters, n)
	}
	// The cap is honoured and reported as the number performed.
	r, x0 = mk()
	if _, iters := r.RunToFixpoint(x0, 5); iters != 5 {
		t.Fatalf("capped sparse: %d iterations, want 5", iters)
	}
}

// TestSparseFixpointAllBottomInput: an all-⊥ vector is a fixpoint the
// sparse driver recognises without iterating.
func TestSparseFixpointAllBottomInput(t *testing.T) {
	g := diffGraph(19)
	r := &Runner[float64, semiring.DistMap]{Graph: g, Module: semiring.DistMapModule{}, Weight: MinPlusWeight}
	out, iters := r.RunToFixpoint(make([]semiring.DistMap, g.N()), g.N())
	if iters != 0 {
		t.Fatalf("all-⊥ input ran %d iterations, want 0", iters)
	}
	for v, s := range out {
		if s.Len() != 0 {
			t.Fatalf("node %d: ⊥ input produced non-⊥ state %v", v, s)
		}
	}
}

// TestZeroUnstableFilterFallsBackDense: a filter with r(⊥) ≠ ⊥ breaks the
// non-⊥ seed of a fresh run; RunToFixpoint and NewStepper must detect it and
// seed every node, which reproduces the dense loop's states and iteration
// count.
func TestZeroUnstableFilterFallsBackDense(t *testing.T) {
	g := graph.PathGraph(5, 1)
	r := &Runner[float64, float64]{
		Graph:  g,
		Module: semiring.MinPlusSelf{},
		// Not a lawful representative projection — it invents information at
		// ⊥ and erases the value 7, so filtered states can be ⊥ although
		// r(⊥) ≠ ⊥ — but exactly the shape the runtime check must catch.
		Filter: func(x float64) float64 {
			switch {
			case semiring.IsInf(x):
				return 100
			case x == 7:
				return semiring.Inf
			}
			return x
		},
		Weight: MinPlusWeight,
	}
	if r.zeroStable() {
		t.Fatal("zeroStable accepted a filter with r(⊥) ≠ ⊥")
	}
	// Filtered, nodes 0 and 1 are ⊥ with an all-⊥ neighborhood on the left,
	// which a non-⊥ seed would skip in the first iteration. Every cap is
	// compared, so the states must agree after every iteration, not only at
	// the fixpoint.
	x0 := []float64{7, 7, semiring.Inf, semiring.Inf, 0}
	_, fixIters := denseFixpoint(r, x0, 100)
	st := r.NewStepper(x0)
	defer st.Release()
	for maxIter := 1; maxIter <= fixIters; maxIter++ {
		got, gotIters := r.RunToFixpoint(x0, maxIter)
		want, wantIters := denseFixpoint(r, x0, maxIter)
		st.Step()
		if gotIters != wantIters || st.Steps() != wantIters {
			t.Fatalf("cap %d: every-node seed ran %d iterations, stepper %d, dense %d", maxIter, gotIters, st.Steps(), wantIters)
		}
		for v := range want {
			if got[v] != want[v] || st.States()[v] != want[v] {
				t.Fatalf("cap %d node %d: fixpoint %v, stepper %v, dense %v", maxIter, v, got[v], st.States()[v], want[v])
			}
		}
	}
	if !st.Done() {
		t.Fatalf("stepper not done after the dense loop's %d iterations", fixIters)
	}
}

// TestTrackerParityFastVsGeneric pins the work-accounting satellite: the
// aggregation fast path, which charges a merged term Size of the
// neighbour's state, must charge the Tracker exactly what the generic
// Add/SMul fold charges for the propagated state when every edge weight is
// live. Parity must hold on the dense Run and on both sparse drivers, whose
// semi-naive iterations skip the same unchanged neighbours in either path.
func TestTrackerParityFastVsGeneric(t *testing.T) {
	size := func(x semiring.DistMap) int { return x.Len() + 1 }
	for _, cfg := range []struct {
		name   string
		module semiring.Semimodule[float64, semiring.DistMap]
		filter semiring.Filter[semiring.DistMap]
	}{
		{"live-edges-default-approximation", semiring.DistMapModule{}, nil},
		// The fused module against the fold filtered by Staircase: on these
		// node-keyed maps Staircase is the LE projection of the identity
		// order.
		{"staircase-module", semiring.StaircaseModule{}, semiring.Staircase},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			g := diffGraph(20)
			x0 := make([]semiring.DistMap, g.N())
			for v := range x0 {
				x0[v] = semiring.SingletonDist(graph.Node(v), 0)
			}
			fastTr, slowTr := &par.Tracker{}, &par.Tracker{}
			fast := &Runner[float64, semiring.DistMap]{
				Graph: g, Module: cfg.module, Filter: cfg.filter,
				Weight: MinPlusWeight, Size: size,
				Tracker: fastTr,
			}
			slow := &Runner[float64, semiring.DistMap]{
				Graph: g, Module: foldOnly[float64, semiring.DistMap]{semiring.DistMapModule{}}, Filter: cfg.filter,
				Weight: MinPlusWeight, Size: size,
				Tracker: slowTr,
			}
			parity := func(leg string) {
				t.Helper()
				if fastTr.Work() != slowTr.Work() {
					t.Fatalf("%s: fast path charged %d work, generic fold %d", leg, fastTr.Work(), slowTr.Work())
				}
				if fastTr.Depth() != slowTr.Depth() {
					t.Fatalf("%s: fast path charged %d depth, generic fold %d", leg, fastTr.Depth(), slowTr.Depth())
				}
			}
			fast.Run(x0, 4)
			slow.Run(x0, 4)
			parity("Run")

			// Even nodes are the sources of a fixpoint; the repair leg then
			// adds the odd nodes below 8 as sources and resumes from them.
			half := make([]semiring.DistMap, g.N())
			for v := 0; v < g.N(); v += 2 {
				half[v] = x0[v]
			}
			fix, _ := fast.RunToFixpoint(half, g.N())
			slow.RunToFixpoint(half, g.N())
			parity("RunToFixpoint")

			base := append([]semiring.DistMap(nil), fix...)
			var seeds []graph.Node
			for v := 1; v < 8; v += 2 {
				base[v] = fast.filter(fast.Module.Add(base[v], x0[v]))
				seeds = append(seeds, graph.Node(v))
			}
			fast.RepairInPlace(slices.Clone(base), seeds, g.N())
			slow.RepairInPlace(slices.Clone(base), seeds, g.N())
			parity("RepairInPlace")
		})
	}
}

// TestStaircaseModuleMatchesStaircaseFilter pins the fused module against
// the configuration it replaced, DistMapModule under the Staircase filter,
// on rank-keyed LE-list fixpoints (the frt package's LERunner) across the
// parallel-width sweep: a fresh run, a warm repair that adds sources to a
// fixpoint, and a repair after a weight increase with the stale nodes reset
// must give identical lists, iteration counts, changed sets and tracker
// work.
func TestStaircaseModuleMatchesStaircaseFilter(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	size := func(x semiring.DistMap) int { return x.Len() + 1 }
	runners := func(g *graph.Graph) (fused, ref *Runner[float64, semiring.DistMap]) {
		fused = &Runner[float64, semiring.DistMap]{
			Graph: g, Module: semiring.StaircaseModule{}, Filter: semiring.Staircase,
			Weight: MinPlusWeight, Size: size, Tracker: &par.Tracker{},
		}
		ref = &Runner[float64, semiring.DistMap]{
			Graph: g, Module: semiring.DistMapModule{}, Filter: semiring.Staircase,
			Weight: MinPlusWeight, Size: size, Tracker: &par.Tracker{},
		}
		return fused, ref
	}
	mod := semiring.DistMapModule{}
	for _, seed := range []uint64{27, 28, 29} {
		rng := par.NewRNG(seed)
		g := graph.RandomConnected(64, 200, 8, rng)
		key := make([]graph.Node, g.N())
		for v, r := range rng.Perm(g.N()) {
			key[v] = graph.Node(r)
		}
		// The repair leg raises the first edge (in a random order) whose
		// increase moves some list of the all-sources fixpoint.
		all := semiring.SingletonStatesKeyed(key)
		_, probe := runners(g)
		fix, _ := probe.RunToFixpoint(all, g.N())
		var g2 *graph.Graph
		var e graph.Edge
		var want []semiring.DistMap
		edges := g.Edges()
		for _, i := range rng.Perm(len(edges)) {
			e = edges[i]
			var err error
			if g2, _, err = graph.ApplyEdits(g, []graph.Edit{{Op: graph.EditReweight, U: e.U, V: e.V, Weight: e.Weight * 4}}); err != nil {
				t.Fatal(err)
			}
			_, probe := runners(g2)
			if want, _ = probe.RunToFixpoint(all, g2.N()); !slices.EqualFunc(fix, want, mod.Equal) {
				break
			}
		}
		for _, procs := range maxProcsVariants() {
			par.MaxProcs = procs
			fused, ref := runners(g)
			same := func(leg string, got, want []semiring.DistMap, gotIt, wantIt int) {
				t.Helper()
				if gotIt != wantIt {
					t.Fatalf("seed %d MaxProcs=%d %s: fused %d iterations, reference %d", seed, procs, leg, gotIt, wantIt)
				}
				for v := range want {
					if !mod.Equal(got[v], want[v]) {
						t.Fatalf("seed %d MaxProcs=%d %s node %d: fused %v, reference %v", seed, procs, leg, v, got[v], want[v])
					}
				}
				if fused.Tracker.Work() != ref.Tracker.Work() || fused.Tracker.Depth() != ref.Tracker.Depth() {
					t.Fatalf("seed %d MaxProcs=%d %s: fused charged %d/%d work/depth, reference %d/%d", seed, procs, leg,
						fused.Tracker.Work(), fused.Tracker.Depth(), ref.Tracker.Work(), ref.Tracker.Depth())
				}
			}
			sameChanged := func(leg string, got, want []graph.Node) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d MaxProcs=%d %s: fused changed %v, reference %v", seed, procs, leg, got, want)
				}
			}

			// Fresh run from the even nodes' rank singletons.
			x0 := make([]semiring.DistMap, g.N())
			for v := 0; v < g.N(); v += 2 {
				x0[v] = semiring.SingletonDist(key[v], 0)
			}
			fixF, itF := fused.RunToFixpoint(x0, g.N())
			fixR, itR := ref.RunToFixpoint(x0, g.N())
			same("fresh", fixF, fixR, itF, itR)

			// Warm start: the odd nodes join as sources.
			base := append([]semiring.DistMap(nil), fixR...)
			var seeds []graph.Node
			for v := 1; v < g.N(); v += 2 {
				base[v] = semiring.Staircase(mod.Add(base[v], semiring.SingletonDist(key[v], 0)))
				seeds = append(seeds, graph.Node(v))
			}
			warmF, warmR := slices.Clone(base), slices.Clone(base)
			chF, itF := fused.RepairInPlace(warmF, seeds, g.N())
			chR, itR := ref.RepairInPlace(warmR, seeds, g.N())
			same("warm", warmF, warmR, itF, itR)
			sameChanged("warm", chF, chR)

			// Repair on the edited graph: reset every node whose list the
			// edit moves and seed them with the edge's endpoints (the
			// contract of RepairInPlace, as frt's DynamicEnsemble uses it).
			fused.Graph, ref.Graph = g2, g2
			reset := append([]semiring.DistMap(nil), warmR...)
			seeds = []graph.Node{e.U, e.V}
			for v := range reset {
				if !mod.Equal(reset[v], want[v]) {
					reset[v] = semiring.SingletonDist(key[v], 0)
					seeds = append(seeds, graph.Node(v))
				}
			}
			xF := append([]semiring.DistMap(nil), reset...)
			xR := append([]semiring.DistMap(nil), reset...)
			chF, itF = fused.RepairInPlace(xF, seeds, g2.N())
			chR, itR = ref.RepairInPlace(xR, seeds, g2.N())
			same("repair", xF, xR, itF, itR)
			sameChanged("repair", chF, chR)
			same("repair vs fresh", xR, want, itR, itR)
		}
	}
}
