package frt

// Differential suite for the tree patch's fallback: a batch that moves a
// tree's level range [imin, imax] must re-read every list of that tree, and
// the result must still be bitwise the frozen-randomness rebuild.

import (
	"math"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// assertRangesMatchRebuild pins the retained block distance ranges, which
// later patches read instead of the lists, against a full build's.
func assertRangesMatchRebuild(t *testing.T, d *DynamicEnsemble) {
	t.Helper()
	ref, err := NewDynamicEnsembleWith(d.Graph(), d.orders, d.betas, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.ranges {
		if len(d.ranges[i]) != len(ref.ranges[i]) {
			t.Fatalf("tree %d: %d range blocks, rebuilt %d", i, len(d.ranges[i]), len(ref.ranges[i]))
		}
		for b, r := range d.ranges[i] {
			w := ref.ranges[i][b]
			if math.Float64bits(r.lo) != math.Float64bits(w.lo) || math.Float64bits(r.hi) != math.Float64bits(w.hi) {
				t.Fatalf("tree %d block %d: range %+v, rebuilt %+v", i, b, r, w)
			}
		}
	}
}

func TestTreePatchRangeMove(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	const n, k = 48, 4
	// A path with chords: node n−1 stays a pendant, so reweighting its one
	// edge moves the largest LE distance of every tree.
	g, _, err := graph.ApplyEdits(graph.PathGraph(n, 1), []graph.Edit{
		{Op: graph.EditInsert, U: 0, V: 30, Weight: 3},
		{Op: graph.EditInsert, U: 5, V: 40, Weight: 2},
		{Op: graph.EditInsert, U: 12, V: 25, Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	pendant := graph.Edit{Op: graph.EditReweight, U: n - 2, V: n - 1}
	light := graph.Edit{U: 10, V: 20, Weight: 1.0 / 64}
	steps := []struct {
		name  string
		edit  graph.Edit
		moves bool // every dirty tree's range moves
	}{
		{"reweight a chord", graph.Edit{Op: graph.EditReweight, U: 5, V: 40, Weight: 2.5}, false},
		{"light insert lowers imin", graph.Edit{Op: graph.EditInsert, U: light.U, V: light.V, Weight: light.Weight}, true},
		{"delete it raises imin", graph.Edit{Op: graph.EditDelete, U: light.U, V: light.V}, true},
		{"heavy pendant raises imax", graph.Edit{Op: pendant.Op, U: pendant.U, V: pendant.V, Weight: 16 * n}, true},
		{"restore lowers imax", graph.Edit{Op: pendant.Op, U: pendant.U, V: pendant.V, Weight: 1}, true},
		{"delete a chord", graph.Edit{Op: graph.EditDelete, U: 12, V: 25}, false},
	}
	for _, procs := range []int{1, 4} {
		par.MaxProcs = procs
		d, err := NewDynamicEnsemble(g, k, par.NewRNG(61), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps {
			stats, err := d.ApplyEdits([]graph.Edit{s.edit})
			if err != nil {
				t.Fatalf("procs %d, %s: %v", procs, s.name, err)
			}
			assertDynamicMatchesRebuild(t, d)
			assertRangesMatchRebuild(t, d)
			if stats.PatchedRows < stats.RangeRebuilds*n || stats.PatchedRows > stats.AffectedTrees*n {
				t.Fatalf("procs %d, %s: stats %+v inconsistent", procs, s.name, *stats)
			}
			if s.moves && (stats.AffectedTrees != k || stats.RangeRebuilds != k || stats.PatchedRows != k*n) {
				t.Fatalf("procs %d, %s: stats %+v, want all %d trees re-read in full", procs, s.name, *stats, k)
			}
			if !s.moves && (stats.AffectedTrees == 0 || stats.RangeRebuilds != 0 || stats.PatchedRows >= stats.AffectedTrees*n) {
				t.Fatalf("procs %d, %s: stats %+v, want a row patch with no range rebuild", procs, s.name, *stats)
			}
			t.Logf("procs %d, %s: %+v", procs, s.name, *stats)
		}
	}
}
