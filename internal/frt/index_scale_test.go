package frt

import (
	"testing"

	"parmbf/internal/graph"
)

// bigSyntheticTree builds a valid 3-level FRT-shaped tree on n leaves:
// root → groups → leaves, with leaf v in group v%groups (or v/width when
// byDivision). Level weights are uniform (leafW up, groupW up) and the
// levels are stored top-down, each numbered in order of its smallest
// member leaf, as BuildTree stores them.
func bigSyntheticTree(n, groups int, byDivision bool, leafW, groupW float64) *Tree {
	nn := 1 + groups + n
	tr := &Tree{
		Parent:     make([]int32, nn),
		EdgeWeight: make([]float64, nn),
		Center:     make([]graph.Node, nn),
		Level:      make([]int32, nn),
		Leaf:       make([]int32, n),
		Beta:       1.5,
	}
	tr.Parent[0] = -1
	tr.Level[0] = 2
	for gi := 0; gi < groups; gi++ {
		tr.Parent[1+gi] = 0
		tr.EdgeWeight[1+gi] = groupW
		tr.Level[1+gi] = 1
	}
	for v := 0; v < n; v++ {
		g := v % groups
		if byDivision {
			g = v / ((n + groups - 1) / groups)
		}
		u := 1 + groups + v
		tr.Parent[u] = int32(1 + g)
		tr.EdgeWeight[u] = leafW
		tr.Level[u] = 0
		tr.Center[u] = graph.Node(v)
		tr.Leaf[v] = int32(u)
	}
	return tr
}

// TestOracleIndexSplitLanes drives the packed rows past the 16-bit lane
// capacity: with n > 65536 leaves the height-0 cluster ids need 32-bit
// lanes, so the index must select a nonzero split and still answer every
// query identically to the tree walk, through Min's general loop.
func TestOracleIndexSplitLanes(t *testing.T) {
	n := 1<<16 + 512
	trees := []*Tree{
		bigSyntheticTree(n, 300, false, 1, 4),
		bigSyntheticTree(n, 17, true, 2, 8),
	}
	for i, tr := range trees {
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
	}
	pairs := []Pair{
		{0, 1}, {0, 300}, {1, 301}, {5, 5 + 300*7}, // same/different groups in tree 0
		{0, graph.Node(n - 1)}, {graph.Node(n / 2), graph.Node(n/2 + 1)},
		{17, 17}, {graph.Node(n - 2), graph.Node(n - 1)},
	}
	idx, err := NewOracleIndex(trees)
	if err != nil {
		t.Fatal(err)
	}
	if idx.packedLo == nil || idx.split == 0 {
		t.Fatalf("split rows not engaged: split=%d loWords=%d", idx.split, idx.loWords)
	}
	ens := &Ensemble{Trees: trees}
	for _, p := range pairs {
		if got, want := idx.Min(p.U, p.V), ens.minWalk(p.U, p.V); got != want {
			t.Fatalf("Min(%d,%d)=%v, walk %v", p.U, p.V, got, want)
		}
		if got, want := idx.Median(p.U, p.V), medianWalkDirect(trees, p.U, p.V); got != want {
			t.Fatalf("Median(%d,%d)=%v, walk %v", p.U, p.V, got, want)
		}
	}
}
