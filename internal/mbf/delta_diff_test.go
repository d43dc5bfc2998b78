package mbf

// Differential suite of the entry-level semi-naive loop: StaircaseModule
// (which has semiring.Differ, so every semi-naive iteration merges its
// changed neighbours' deltas) on rank-keyed LE-list fixpoints over random,
// Chung-Lu and grid graphs, through every entry point of the sparse loop —
// RunToFixpoint, Stepper, and RepairInPlace with grown seeds (the oracle's
// warm restarts) and with reset seeds (frt's non-monotone updates) —
// against the dense Iterate loop, across the parallel-width sweep. States
// must be equal bitwise after every iteration, and iteration counts and
// changed sets must match. A last leg pins that a fresh run is the repair
// from ⊥, for StaircaseModule, DistMapModule and the generic fold. Runs in
// the short and -race tiers.

import (
	"fmt"
	"slices"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// deltaCase is one graph of the suite with a random rank key per node.
type deltaCase struct {
	name string
	g    *graph.Graph
	key  []graph.Node
}

func deltaCases() []deltaCase {
	rng := par.NewRNG(41)
	cases := []deltaCase{
		{name: "random", g: graph.RandomConnected(64, 200, 8, rng)},
		{name: "chunglu", g: graph.ChungLu(96, 4, 2.5, 8, rng)},
		{name: "grid", g: graph.GridGraph(8, 9, 8, rng)},
	}
	for i := range cases {
		n := cases[i].g.N()
		cases[i].key = make([]graph.Node, n)
		for v, r := range rng.Perm(n) {
			cases[i].key[v] = graph.Node(r)
		}
	}
	return cases
}

func stairRunner(g *graph.Graph) *Runner[float64, semiring.DistMap] {
	return &Runner[float64, semiring.DistMap]{
		Graph:  g,
		Module: semiring.StaircaseModule{},
		Filter: semiring.Staircase,
		Weight: MinPlusWeight,
	}
}

// denseTrace iterates Iterate from the filtered x until two consecutive
// vectors are equal or maxIter iterations have run, and returns the final
// states, the number of iterations (including the confirming one) and the
// nodes whose state changed in some iteration, in ascending order.
func denseTrace(r *Runner[float64, semiring.DistMap], x []semiring.DistMap, maxIter int) ([]semiring.DistMap, int, []graph.Node) {
	x = r.filterAll(x)
	moved := make([]bool, len(x))
	it := 0
	for it < maxIter {
		it++
		next := r.Iterate(x)
		done := true
		for v := range x {
			if !r.Module.Equal(next[v], x[v]) {
				moved[v], done = true, false
			}
		}
		x = next
		if done {
			break
		}
	}
	var changed []graph.Node
	for v, m := range moved {
		if m {
			changed = append(changed, graph.Node(v))
		}
	}
	return x, it, changed
}

// sameStates fails unless got and want are equal bitwise at every node.
func sameStates(t *testing.T, leg string, got, want []semiring.DistMap) {
	t.Helper()
	var mod semiring.DistMapModule
	for v := range want {
		if !mod.Equal(got[v], want[v]) {
			t.Fatalf("%s node %d: delta loop %v, dense %v", leg, v, got[v], want[v])
		}
	}
}

// freshIsRepairFromBottom is the leg of TestDeltaLoopMatchesDense that pins
// the one start rule of the sparse loop, for module under the Staircase
// filter on rank-keyed x0. A fresh RunToFixpoint must match the dense loop,
// and RepairInPlace of the all-⊥ vector with the non-⊥ filtered states of x0
// as seeds and ⊥ as their old states must match the fresh run: states,
// iteration counts, changed sets and tracker work. Its first iteration must
// charge what the rule merges: every seed its own state, its whole
// in-neighbourhood and its output, and every other candidate its own state,
// its seed neighbours and its output.
func freshIsRepairFromBottom(t *testing.T, leg string, g *graph.Graph, module semiring.Semimodule[float64, semiring.DistMap], x0 []semiring.DistMap) {
	t.Helper()
	n := g.N()
	size := func(x semiring.DistMap) int { return x.Len() + 1 }
	runner := func(tr *par.Tracker) *Runner[float64, semiring.DistMap] {
		return &Runner[float64, semiring.DistMap]{
			Graph: g, Module: module, Filter: semiring.Staircase,
			Weight: MinPlusWeight, Size: size, Tracker: tr,
		}
	}
	wantX, wantIt, wantCh := denseTrace(runner(nil), x0, n)
	fresh := runner(&par.Tracker{})
	gotX, gotIt := fresh.RunToFixpoint(x0, n)
	sameStates(t, leg+" fresh", gotX, wantX)
	if gotIt != wantIt {
		t.Fatalf("%s fresh: %d iterations, dense %d", leg, gotIt, wantIt)
	}

	x := make([]semiring.DistMap, n)
	seed := make([]bool, n)
	var seeds []graph.Node
	var old []semiring.DistMap
	for v, s := range x0 {
		if f := semiring.Staircase(s); f.Len() > 0 {
			x[v], seed[v] = f, true
			seeds, old = append(seeds, graph.Node(v)), append(old, semiring.DistMap{})
		}
	}
	start := slices.Clone(x)
	repair := runner(&par.Tracker{})
	ch, it := repair.RepairInPlace(x, seeds, old, n)
	sameStates(t, leg+" repair from ⊥", x, gotX)
	if it != gotIt {
		t.Fatalf("%s repair from ⊥: %d iterations, fresh %d", leg, it, gotIt)
	}
	if ch = slices.Sorted(slices.Values(ch)); !slices.Equal(ch, wantCh) {
		t.Fatalf("%s repair from ⊥: changed %v, dense %v", leg, ch, wantCh)
	}
	if fresh.Tracker.Work() != repair.Tracker.Work() || fresh.Tracker.Depth() != repair.Tracker.Depth() {
		t.Fatalf("%s: fresh run charged %d/%d work/depth, repair from ⊥ %d/%d", leg,
			fresh.Tracker.Work(), fresh.Tracker.Depth(), repair.Tracker.Work(), repair.Tracker.Depth())
	}

	next, _, _ := denseTrace(runner(nil), x0, 1)
	var want int64
	for v := range n {
		cand, terms := seed[v], 0
		for _, a := range g.Neighbors(graph.Node(v)) {
			if seed[v] || seed[a.To] {
				cand, terms = true, terms+size(start[a.To])
			}
		}
		if cand {
			want += int64(size(start[v]) + terms + size(next[v]))
		}
	}
	first := runner(&par.Tracker{})
	first.RunToFixpoint(x0, 1)
	if got := first.Tracker.Work(); got != want {
		t.Fatalf("%s: first iteration charged %d work, the start rule merges %d", leg, got, want)
	}
}

func TestDeltaLoopMatchesDense(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	var mod semiring.DistMapModule
	for _, c := range deltaCases() {
		g, key, n := c.g, c.key, c.g.N()
		half := make([]semiring.DistMap, n)
		for v := 0; v < n; v += 2 {
			half[v] = semiring.SingletonDist(key[v], 0)
		}
		all := semiring.SingletonStatesKeyed(key)

		// Grown seeds: the odd nodes join the even nodes' fixpoint as
		// sources, as an oracle level's warm restart raises its seeds.
		fix, _, _ := denseTrace(stairRunner(g), half, n)
		grown := slices.Clone(fix)
		var grownSeeds []graph.Node
		for v := 1; v < n; v += 2 {
			grown[v] = semiring.Staircase(mod.Add(fix[v], all[v]))
			grownSeeds = append(grownSeeds, graph.Node(v))
		}

		// Reset seeds: raise the first edge (in a random order) whose
		// increase moves a list of the all-sources fixpoint, reset every
		// node whose list moves, and seed them with the edge's endpoints,
		// as frt's DynamicEnsemble repairs a non-monotone edit.
		old, _, _ := denseTrace(stairRunner(g), all, n)
		rng := par.NewRNG(42)
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
			if want, _, _ = denseTrace(stairRunner(g2), all, n); !slices.EqualFunc(old, want, mod.Equal) {
				break
			}
		}
		reset := slices.Clone(old)
		resetSeeds := []graph.Node{e.U, e.V}
		for v := range reset {
			if !mod.Equal(old[v], want[v]) {
				reset[v] = all[v]
				resetSeeds = append(resetSeeds, graph.Node(v))
			}
		}

		for _, procs := range maxProcsVariants() {
			par.MaxProcs = procs
			t.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(t *testing.T) {
				r := stairRunner(g)

				wantFix, wantIt, _ := denseTrace(r, half, n)
				gotFix, gotIt := r.RunToFixpoint(half, n)
				sameStates(t, "RunToFixpoint", gotFix, wantFix)
				if gotIt != wantIt {
					t.Fatalf("RunToFixpoint: %d iterations, dense %d", gotIt, wantIt)
				}

				st := r.NewStepper(half)
				defer st.Release()
				xd := r.filterAll(half)
				for step := 1; ; step++ {
					next, _, moved := denseTrace(r, xd, 1)
					st.Step()
					sameStates(t, fmt.Sprintf("Stepper step %d", step), st.States(), next)
					if front := slices.Sorted(slices.Values(st.frontier)); !slices.Equal(front, moved) {
						t.Fatalf("Stepper step %d: frontier %v, dense changed %v", step, front, moved)
					}
					xd = next
					if len(moved) == 0 {
						break
					}
				}

				for _, leg := range []struct {
					name  string
					g     *graph.Graph
					start []semiring.DistMap
					seeds []graph.Node
					old   []semiring.DistMap
					fresh []semiring.DistMap // the fixpoint a fresh run reaches, if known
				}{
					{"grown", g, grown, grownSeeds, seedStates(fix, grownSeeds), nil},
					{"reset", g2, reset, resetSeeds, seedStates(old, resetSeeds), want},
				} {
					rr := stairRunner(leg.g)
					wantX, wantIt, wantCh := denseTrace(rr, leg.start, n)
					x := slices.Clone(leg.start)
					ch, it := rr.RepairInPlace(x, leg.seeds, leg.old, n)
					sameStates(t, leg.name, x, wantX)
					if it != wantIt {
						t.Fatalf("%s: %d iterations, dense %d", leg.name, it, wantIt)
					}
					if ch = slices.Sorted(slices.Values(ch)); !slices.Equal(ch, wantCh) {
						t.Fatalf("%s: changed %v, dense %v", leg.name, ch, wantCh)
					}
					if leg.fresh != nil {
						sameStates(t, leg.name+" vs fresh", x, leg.fresh)
					}
				}

				for _, m := range []struct {
					name   string
					module semiring.Semimodule[float64, semiring.DistMap]
				}{
					{"staircase", semiring.StaircaseModule{}},
					{"distmap", semiring.DistMapModule{}},
					{"fold", foldOnly[float64, semiring.DistMap]{semiring.DistMapModule{}}},
				} {
					freshIsRepairFromBottom(t, m.name, g, m.module, half)
				}
			})
		}
	}
}
