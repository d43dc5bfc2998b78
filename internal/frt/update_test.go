package frt

// Differential suite for the live-update path: incremental repair
// (DynamicEnsemble.ApplyEdits) must be bitwise the full rebuild with frozen
// randomness (NewDynamicEnsembleWith on the edited graph) across random edit
// scripts mixing inserts, deletes, and reweights, at every parallel width.
// Runs in the short and -race tiers — the repair path shares the pooled
// aggregation scratch between workers.

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// randomEditBatch draws a valid batch of k edits against g: inserts of
// absent pairs, deletes and up/down reweights of present edges.
func randomEditBatch(g *graph.Graph, k int, rng *par.RNG) []graph.Edit {
	n := g.N()
	var edits []graph.Edit
	used := map[[2]graph.Node]struct{}{}
	for guard := 0; len(edits) < k && guard < 64*k; guard++ {
		u, v := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if _, dup := used[[2]graph.Node{u, v}]; dup {
			continue
		}
		used[[2]graph.Node{u, v}] = struct{}{}
		w := 1 + float64(rng.Intn(12))
		if _, exists := g.HasEdge(u, v); exists {
			switch rng.Intn(3) {
			case 0:
				edits = append(edits, graph.Edit{Op: graph.EditDelete, U: u, V: v})
			default:
				edits = append(edits, graph.Edit{Op: graph.EditReweight, U: u, V: v, Weight: w})
			}
		} else {
			edits = append(edits, graph.Edit{Op: graph.EditInsert, U: u, V: v, Weight: w})
		}
	}
	return edits
}

// assertDynamicMatchesRebuild pins incremental == full rebuild, bitwise:
// same trees (serialised bytes), same LE lists (representation equality).
func assertDynamicMatchesRebuild(t *testing.T, d *DynamicEnsemble) {
	t.Helper()
	ref, err := NewDynamicEnsembleWith(d.Graph(), d.orders, d.betas, nil)
	if err != nil {
		t.Fatalf("reference rebuild: %v", err)
	}
	if got, want := ensembleBytes(t, d.Ensemble()), ensembleBytes(t, ref.Ensemble()); !bytes.Equal(got, want) {
		t.Fatal("incremental trees diverge from frozen-randomness rebuild")
	}
	module := semiring.DistMapModule{}
	for i := range d.lists {
		for v := range d.lists[i] {
			if !module.Equal(d.lists[i][v], ref.lists[i][v]) {
				t.Fatalf("tree %d node %d: incremental list %v, rebuilt %v", i, v, d.lists[i][v], ref.lists[i][v])
			}
		}
	}
}

func TestDynamicEnsembleDifferential(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	for _, procs := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		par.MaxProcs = procs
		for _, seed := range []uint64{3, 5} {
			rng := par.NewRNG(seed)
			g := graph.RandomConnected(72, 200, 8, rng)
			d, err := NewDynamicEnsemble(g, 3, par.NewRNG(seed+100), nil)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 5; round++ {
				edits := randomEditBatch(d.Graph(), 4, rng)
				if _, err := d.ApplyEdits(edits); err != nil {
					// A deletion may disconnect the graph; the batch must
					// then have been rejected atomically — retry next round
					// draws on the unchanged graph.
					continue
				}
				assertDynamicMatchesRebuild(t, d)
			}
		}
	}
}

// TestDynamicEnsembleStatsDeterministic: trees are repaired concurrently, so
// the per-batch UpdateStats (and which batches fail) must not depend on the
// parallel width either.
func TestDynamicEnsembleStatsDeterministic(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	run := func(procs int) []string {
		par.MaxProcs = procs
		rng := par.NewRNG(29)
		d, err := NewDynamicEnsemble(graph.RandomConnected(80, 1000, 8, rng), 6, par.NewRNG(30), nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for round := 0; round < 8; round++ {
			stats, err := d.ApplyEdits(randomEditBatch(d.Graph(), 1+round%4, rng))
			if err != nil {
				out = append(out, err.Error())
				continue
			}
			out = append(out, fmt.Sprintf("%+v", *stats))
		}
		return out
	}
	want := run(1)
	for _, procs := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(procs); !reflect.DeepEqual(got, want) {
			t.Fatalf("procs %d: stats %v, want (procs 1) %v", procs, got, want)
		}
	}
}

// TestDynamicEnsembleDecreaseOnlyDelta pins the pure delta path (no cone
// invalidation) separately, since mixed scripts may never draw a
// decrease-only batch.
func TestDynamicEnsembleDecreaseOnlyDelta(t *testing.T) {
	rng := par.NewRNG(17)
	g := graph.RandomConnected(64, 180, 8, rng)
	d, err := NewDynamicEnsemble(g, 2, par.NewRNG(18), nil)
	if err != nil {
		t.Fatal(err)
	}
	edges := d.Graph().Edges()
	e := edges[rng.Intn(len(edges))]
	stats, err := d.ApplyEdits([]graph.Edit{
		{Op: graph.EditReweight, U: e.U, V: e.V, Weight: e.Weight / 4},
		{Op: graph.EditInsert, U: 0, V: graph.Node(d.Graph().N() - 1), Weight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.DecreaseOnly {
		t.Fatalf("stats: %+v, want DecreaseOnly", stats)
	}
	assertDynamicMatchesRebuild(t, d)
}

// TestDynamicEnsembleNonMonotone pins the taint-cone path: deletions and
// weight increases must invalidate and recompute exactly enough to match
// the rebuild.
func TestDynamicEnsembleNonMonotone(t *testing.T) {
	rng := par.NewRNG(23)
	g := graph.RandomConnected(64, 200, 8, rng)
	d, err := NewDynamicEnsemble(g, 2, par.NewRNG(24), nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		edges := d.Graph().Edges()
		e := edges[rng.Intn(len(edges))]
		var batch []graph.Edit
		if round%2 == 0 {
			batch = []graph.Edit{{Op: graph.EditReweight, U: e.U, V: e.V, Weight: e.Weight * 3}}
		} else {
			batch = []graph.Edit{{Op: graph.EditDelete, U: e.U, V: e.V}}
		}
		stats, err := d.ApplyEdits(batch)
		if err != nil {
			continue // disconnecting delete, rejected atomically
		}
		if stats.DecreaseOnly {
			t.Fatalf("round %d: non-monotone batch reported DecreaseOnly", round)
		}
		assertDynamicMatchesRebuild(t, d)
	}
}

// TestDynamicEnsembleRejectsDisconnect: deleting a bridge must fail the
// whole batch and leave the ensemble untouched.
func TestDynamicEnsembleRejectsDisconnect(t *testing.T) {
	g := graph.PathGraph(16, 1)
	d, err := NewDynamicEnsemble(g, 2, par.NewRNG(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	treesBefore := d.Trees()
	_, err = d.ApplyEdits([]graph.Edit{{Op: graph.EditDelete, U: 7, V: 8}})
	if err == nil {
		t.Fatal("disconnecting delete accepted")
	}
	if d.Graph() != g {
		t.Fatal("failed batch advanced the graph")
	}
	if !reflect.DeepEqual(treesBefore, d.Trees()) {
		t.Fatal("failed batch changed the trees")
	}
}

// TestDynamicEnsembleUnaffectedTreesShared: an update that only touches part
// of the metric must keep unaffected trees' pointers (no rebuild, no copy).
func TestDynamicEnsembleNoopReweightKeepsTrees(t *testing.T) {
	g := graph.RandomConnected(48, 140, 8, par.NewRNG(41))
	d, err := NewDynamicEnsemble(g, 3, par.NewRNG(42), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Trees()
	// Reweight an edge upward when it is not on any shortest path: pick the
	// heaviest edge and make it heavier — likely unused by every LE list.
	edges := d.Graph().Edges()
	heavy := edges[0]
	for _, e := range edges {
		if e.Weight > heavy.Weight {
			heavy = e
		}
	}
	stats, err := d.ApplyEdits([]graph.Edit{
		{Op: graph.EditReweight, U: heavy.U, V: heavy.V, Weight: heavy.Weight * 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := d.Trees()
	shared := 0
	for i := range before {
		if before[i] == after[i] {
			shared++
		}
	}
	if shared != len(before)-stats.AffectedTrees {
		t.Fatalf("%d trees shared, %d affected of %d", shared, stats.AffectedTrees, len(before))
	}
	assertDynamicMatchesRebuild(t, d)
}
