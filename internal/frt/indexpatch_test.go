package frt

// Differential suite for the OracleIndex patch: after every ApplyEdits
// batch, the index the DynamicEnsemble serves (a copy of the previous one
// with the re-assembled trees' columns overwritten, or a fresh pack when
// the layout moved) must equal NewOracleIndex of the new trees, field for
// field. Runs in the short and -race tiers: the dirty trees write their
// columns concurrently.

import (
	"math"
	"reflect"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// indexDiff names the first field in which got differs from want, or
// returns "". Every field but the median scratch pool is compared, floats
// bitwise and nil apart from empty, so a field added later is covered too.
func indexDiff(got, want *OracleIndex) string {
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		if f := gv.Type().Field(i).Name; f != "med" && !bitsEqual(gv.Field(i), wv.Field(i)) {
			return f
		}
	}
	return ""
}

func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for j := 0; j < a.Len(); j++ {
			if !bitsEqual(a.Index(j), b.Index(j)) {
				return false
			}
		}
		return true
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	panic("indexDiff: unhandled field kind " + a.Kind().String())
}

// TestPatchedIndexMatchesFresh runs K = 6 trees through random mixed edit
// batches interleaved with edits that move every tree's level range, and so
// the index stride: an insert lighter than every edge, its delete, and a
// pendant edge reweighted far above every distance and back.
func TestPatchedIndexMatchesFresh(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	const n, k = 48, 6
	g, _, err := graph.ApplyEdits(graph.PathGraph(n, 1), []graph.Edit{
		{Op: graph.EditInsert, U: 0, V: 30, Weight: 3},
		{Op: graph.EditInsert, U: 5, V: 40, Weight: 2},
		{Op: graph.EditInsert, U: 12, V: 25, Weight: 4},
		{Op: graph.EditInsert, U: 8, V: 33, Weight: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	movers := [][]graph.Edit{
		{{Op: graph.EditInsert, U: 10, V: 20, Weight: 1.0 / 64}},
		{{Op: graph.EditDelete, U: 10, V: 20}},
		{{Op: graph.EditReweight, U: n - 2, V: n - 1, Weight: 16 * n}},
		{{Op: graph.EditReweight, U: n - 2, V: n - 1, Weight: 1}},
	}
	for _, procs := range []int{1, 4} {
		par.MaxProcs = procs
		d, err := NewDynamicEnsemble(g, k, par.NewRNG(71), nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := par.NewRNG(72)
		patched, rebuilt := 0, 0
		for round := 0; round < 24; round++ {
			edits := randomEditBatch(d.Graph(), 1+rng.Intn(3), rng)
			if round%3 == 2 {
				edits = movers[round/3%len(movers)]
			}
			stats, err := d.ApplyEdits(edits)
			if err != nil {
				continue // a delete disconnected the graph; d is unchanged
			}
			want, err := NewOracleIndex(d.Trees())
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Ensemble().Index()
			if err != nil {
				t.Fatal(err)
			}
			if f := indexDiff(got, want); f != "" {
				t.Fatalf("procs %d round %d (%+v): patched index field %s differs from NewOracleIndex", procs, round, *stats, f)
			}
			switch {
			case stats.IndexRebuilds > 0:
				rebuilt++
			case stats.AffectedTrees > 0:
				patched++
			}
		}
		t.Logf("procs %d: %d patched, %d rebuilt", procs, patched, rebuilt)
		if patched == 0 || rebuilt == 0 {
			t.Fatalf("procs %d: %d patched and %d rebuilt batches, want both paths", procs, patched, rebuilt)
		}
	}
}

// TestPatchedIndexSplitLanes runs the patch on a star of 2^16+64 leaves,
// whose leaf height needs 32-bit lanes (split 1): a reweighted spoke moves
// a few leaves' clusters, and the patched index must equal a fresh pack.
func TestPatchedIndexSplitLanes(t *testing.T) {
	const n = 1<<16 + 64
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.Add(0, graph.Node(v), 1+float64(v%3))
	}
	d, err := NewDynamicEnsemble(b.Freeze(), 2, par.NewRNG(81), nil)
	if err != nil {
		t.Fatal(err)
	}
	patched := 0
	for _, w := range []float64{2.5, 1, 7} {
		stats, err := d.ApplyEdits([]graph.Edit{{Op: graph.EditReweight, U: 0, V: 5, Weight: w}})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := d.Ensemble().Index()
		want, err := NewOracleIndex(d.Trees())
		if err != nil {
			t.Fatal(err)
		}
		if want.split == 0 {
			t.Fatal("split lanes not engaged")
		}
		if f := indexDiff(got, want); f != "" {
			t.Fatalf("weight %v (%+v): patched index field %s differs from NewOracleIndex", w, *stats, f)
		}
		if stats.IndexRebuilds == 0 {
			patched++
		}
	}
	if patched == 0 {
		t.Fatal("every batch repacked the index; the split-lane patch went untested")
	}
}

// TestPatchedIndexTreeSplitMoves moves one tree's own lane split while the
// index's split, the largest over the trees, holds, so the patch must
// re-derive that tree's treeSplit instead of keeping the old one. The graph
// is a star of 2^16+64 leaves on weight-3 spokes plus disjoint leaf-leaf
// edges: 40 of weight 1, 40 of weight 1.5 and 1000 of weight 2. With
// d_min = 1, height h has radius β·2^(h−1), and a pair merges at the first
// height whose radius reaches its weight.
//   - β = 1.75 (tree 0): height 1 merges the weight-1 and weight-1.5 pairs,
//     n−80 ≤ 2^16 clusters, so its split is 1.
//   - β = 1.25 (tree 1): height 1 merges only the weight-1 pairs, n−40 >
//     2^16 clusters; height 2 merges all pairs. Its split is 2.
//
// Raising 20 of the weight-1.5 edges to 3 leaves tree 0 n−60 clusters at
// height 1 (split 2), and lowering them back restores split 1. Tree 1 keeps
// split 2 throughout, so the index's split stays 2.
func TestPatchedIndexTreeSplitMoves(t *testing.T) {
	const n = 1<<16 + 64
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.Add(0, graph.Node(v), 3)
	}
	for i := 0; i < 1000; i++ {
		b.Add(graph.Node(161+2*i), graph.Node(162+2*i), 2)
	}
	var raise, lower []graph.Edit
	for i := 0; i < 80; i++ {
		u, v := graph.Node(1+2*i), graph.Node(2+2*i)
		w := 1.0
		if i >= 40 {
			w = 1.5
		}
		b.Add(u, v, w)
		if i >= 60 {
			raise = append(raise, graph.Edit{Op: graph.EditReweight, U: u, V: v, Weight: 3})
			lower = append(lower, graph.Edit{Op: graph.EditReweight, U: u, V: v, Weight: 1.5})
		}
	}
	rng := par.NewRNG(91)
	orders := []*Order{NewOrder(n, rng), NewOrder(n, rng)}
	d, err := NewDynamicEnsembleWith(b.Freeze(), orders, []float64{1.75, 1.25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name  string
		edits []graph.Edit
		want  []int
	}{
		{"start", nil, []int{1, 2}},
		{"raise", raise, []int{2, 2}},
		{"lower", lower, []int{1, 2}},
	} {
		if step.edits != nil {
			stats, err := d.ApplyEdits(step.edits)
			if err != nil {
				t.Fatal(err)
			}
			if stats.IndexRebuilds != 0 || stats.AffectedTrees == 0 {
				t.Fatalf("%s: %+v, want a patched index", step.name, *stats)
			}
		}
		got, _ := d.Ensemble().Index()
		want, err := NewOracleIndex(d.Trees())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.treeSplit, step.want) || want.split != 2 {
			t.Fatalf("%s: fresh pack has lane splits %v (split %d), want %v (split 2)", step.name, want.treeSplit, want.split, step.want)
		}
		if f := indexDiff(got, want); f != "" {
			t.Fatalf("%s: patched index field %s differs from NewOracleIndex", step.name, f)
		}
	}
}
