package mbf

// Differential tests of RepairInPlace, the incremental-repair entry
// point: resuming an old fixpoint on a decrease-edited graph from the edited
// endpoints must land on exactly the fixpoint a fresh run computes on the
// edited graph, across the parallel-width sweep, and must report the true
// changed set. Runs in the short and -race tiers.

import (
	"slices"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func repairRunner(g *graph.Graph) *Runner[float64, semiring.DistMap] {
	return &Runner[float64, semiring.DistMap]{
		Graph:  g,
		Module: semiring.DistMapModule{},
		Filter: semiring.TopKFilter(4, semiring.Inf, nil),
		Weight: MinPlusWeight,
	}
}

func TestRepairInPlaceDecreaseMatchesFresh(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	for _, seed := range []uint64{21, 22, 23} {
		rng := par.NewRNG(seed)
		g := graph.RandomConnected(48, 140, 8, rng)
		x0 := make([]semiring.DistMap, g.N())
		for v := range x0 {
			x0[v] = semiring.SingletonDist(graph.Node(v), 0)
		}
		old, _ := repairRunner(g).RunToFixpoint(append([]semiring.DistMap(nil), x0...), g.N())

		// Halve the weight of a random existing edge — a decrease-only edit.
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		g2, _, err := graph.ApplyEdits(g, []graph.Edit{
			{Op: graph.EditReweight, U: e.U, V: e.V, Weight: e.Weight / 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := repairRunner(g2).RunToFixpoint(append([]semiring.DistMap(nil), x0...), g2.N())

		snap := make([]semiring.DistMap, len(old))
		for v := range old {
			snap[v] = old[v].Clone()
		}
		for _, procs := range maxProcsVariants() {
			par.MaxProcs = procs
			r2 := repairRunner(g2)
			got := slices.Clone(old)
			changed, _ := r2.RepairInPlace(got, []graph.Node{e.U, e.V}, g2.N())
			for v := range want {
				if !r2.Module.Equal(got[v], want[v]) {
					t.Fatalf("seed %d MaxProcs=%d node %d: repaired %v, fresh %v", seed, procs, v, got[v], want[v])
				}
			}
			// The changed set must be exactly the nodes whose state moved.
			isChanged := make(map[graph.Node]bool, len(changed))
			for _, v := range changed {
				if isChanged[v] {
					t.Fatalf("seed %d: node %d reported changed twice", seed, v)
				}
				isChanged[v] = true
			}
			for v := range want {
				if moved := !r2.Module.Equal(old[v], want[v]); moved && !isChanged[graph.Node(v)] {
					t.Fatalf("seed %d: node %d changed but was not reported", seed, v)
				}
			}
			// Repairing a shallow copy leaves the old fixpoint intact: the
			// engine replaces vector slots and never writes the maps they
			// share with old.
			for v := range old {
				if !r2.Module.Equal(old[v], snap[v]) {
					t.Fatalf("seed %d: old state %d mutated through the copy", seed, v)
				}
			}
		}
	}
}

// TestRepairInPlaceNoopSeeds pins the O(affected) guarantee's base case:
// seeding a valid fixpoint at arbitrary nodes must converge in one
// confirming iteration with nothing changed.
func TestRepairInPlaceNoopSeeds(t *testing.T) {
	g := graph.RandomConnected(32, 90, 8, par.NewRNG(31))
	r := repairRunner(g)
	x0 := make([]semiring.DistMap, g.N())
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	fix, _ := r.RunToFixpoint(append([]semiring.DistMap(nil), x0...), g.N())
	got := slices.Clone(fix)
	changed, iters := r.RepairInPlace(got, []graph.Node{0, 5, 31}, g.N())
	if len(changed) != 0 || iters != 1 {
		t.Fatalf("no-op repair: %d nodes changed in %d iterations, want 0 in 1", len(changed), iters)
	}
	for v := range fix {
		if !r.Module.Equal(got[v], fix[v]) {
			t.Fatalf("no-op repair moved node %d", v)
		}
	}
}

// TestRepairInPlaceResetMatchesFresh pins the contract on the
// non-monotone repair shape frt's DynamicEnsemble uses: on a rank-keyed
// Staircase (LE-list) fixpoint, raise one edge's weight, reset every stale
// node to its singleton, and seed only the reset nodes and the edge's
// endpoints. Their non-seed neighbours are never in the frontier, so a
// reset node recovers their entries only through the full merge of the
// first iteration; the repair must land on exactly the fresh fixpoint of the
// edited graph and report exactly the nodes that moved from the reset
// vector.
func TestRepairInPlaceResetMatchesFresh(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	leRunner := func(g *graph.Graph) *Runner[float64, semiring.DistMap] {
		return &Runner[float64, semiring.DistMap]{
			Graph:  g,
			Module: semiring.DistMapModule{},
			Filter: semiring.Staircase,
			Weight: MinPlusWeight,
		}
	}
	module := semiring.DistMapModule{}
	for _, seed := range []uint64{24, 25, 26} {
		rng := par.NewRNG(seed)
		g := graph.RandomConnected(48, 140, 8, rng)
		key := make([]graph.Node, g.N())
		for v, r := range rng.Perm(g.N()) {
			key[v] = graph.Node(r)
		}
		x0 := semiring.SingletonStatesKeyed(key)
		old, _ := leRunner(g).RunToFixpoint(x0, g.N())

		// Raise the weight of the first edge (in a random order) whose
		// increase invalidates some list.
		var g2 *graph.Graph
		var e graph.Edge
		var want []semiring.DistMap
		edges := g.Edges()
		for _, i := range rng.Perm(len(edges)) {
			e = edges[i]
			var err error
			g2, _, err = graph.ApplyEdits(g, []graph.Edit{
				{Op: graph.EditReweight, U: e.U, V: e.V, Weight: e.Weight * 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			want, _ = leRunner(g2).RunToFixpoint(x0, g2.N())
			if !slices.EqualFunc(old, want, module.Equal) {
				break
			}
		}
		// Reset the stale nodes — those whose list the edit moves, the
		// smallest reset the contract allows — and seed them with the
		// edge's endpoints.
		base := append([]semiring.DistMap(nil), old...)
		var seeds []graph.Node
		for v := range old {
			if !module.Equal(old[v], want[v]) {
				base[v] = semiring.SingletonDist(key[v], 0)
				seeds = append(seeds, graph.Node(v))
			}
		}
		if len(seeds) == 0 {
			t.Fatalf("seed %d: no edge increase moved any list", seed)
		}
		seeds = append(seeds, e.U, e.V)
		for _, procs := range maxProcsVariants() {
			par.MaxProcs = procs
			got := slices.Clone(base)
			changed, _ := leRunner(g2).RepairInPlace(got, seeds, g2.N())
			for v := range want {
				if !module.Equal(got[v], want[v]) {
					t.Fatalf("seed %d MaxProcs=%d node %d: repaired %v, fresh %v", seed, procs, v, got[v], want[v])
				}
			}
			isChanged := make(map[graph.Node]bool, len(changed))
			for _, v := range changed {
				isChanged[v] = true
			}
			if len(isChanged) != len(changed) {
				t.Fatalf("seed %d: changed set %v has duplicates", seed, changed)
			}
			for v := range want {
				if moved := !module.Equal(base[v], want[v]); moved != isChanged[graph.Node(v)] {
					t.Fatalf("seed %d MaxProcs=%d node %d: moved=%v but reported changed=%v",
						seed, procs, v, moved, isChanged[graph.Node(v)])
				}
			}
		}
	}
}
