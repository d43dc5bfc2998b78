package frt

import (
	"testing"

	"parmbf/internal/graph"
)

// bigSyntheticTree builds a valid 3-level FRT-shaped tree on n leaves:
// root → groups → leaves, with leaf v in group v%groups (or v/width when
// byDivision). Level weights are uniform (leafW up, groupW up), matching
// the BuildTree convention, so the shared weight table engages.
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
// query identically to the tree walk — over level-uniform trees (shared
// weight row) and with one skewed tree added (per-leaf weight rows).
func TestOracleIndexSplitLanes(t *testing.T) {
	n := 1<<16 + 512
	uniform := []*Tree{
		bigSyntheticTree(n, 300, false, 1, 4),
		bigSyntheticTree(n, 17, true, 2, 8),
	}
	skewed := bigSyntheticTree(n, 300, false, 1, 4)
	skewed.EdgeWeight[skewed.Leaf[300*7+5]] = 3
	for i, tr := range append(uniform, skewed) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
	}
	pairs := []Pair{
		{0, 1}, {0, 300}, {1, 301}, {5, 5 + 300*7}, // same/different groups in tree 0
		{0, graph.Node(n - 1)}, {graph.Node(n / 2), graph.Node(n/2 + 1)},
		{17, 17}, {graph.Node(n - 2), graph.Node(n - 1)},
	}
	for _, trees := range [][]*Tree{uniform, append(uniform, skewed)} {
		idx, err := NewOracleIndex(trees)
		if err != nil {
			t.Fatal(err)
		}
		if idx.packedLo == nil || idx.split == 0 {
			t.Fatalf("split rows not engaged: split=%d loWords=%d", idx.split, idx.loWords)
		}
		if perLeaf := idx.pwStep > 0; perLeaf != (len(trees) == 3) {
			t.Fatalf("%d trees: per-leaf weight rows = %v", len(trees), perLeaf)
		}
		ens := &Ensemble{Trees: trees}
		for _, p := range pairs {
			if got, want := idx.Min(p.U, p.V), ens.minWalk(p.U, p.V); got != want {
				t.Fatalf("%d trees: Min(%d,%d)=%v, walk %v", len(trees), p.U, p.V, got, want)
			}
			if got, want := idx.Median(p.U, p.V), medianWalkDirect(trees, p.U, p.V); got != want {
				t.Fatalf("%d trees: Median(%d,%d)=%v, walk %v", len(trees), p.U, p.V, got, want)
			}
		}
	}
}

// TestOracleIndexBackfillsNonUniformPrefix covers the streaming rare path:
// when a later tree breaks level uniformity, the restarted stream must also
// fill the per-leaf weight rows of the earlier (already dropped) trees.
func TestOracleIndexBackfillsNonUniformPrefix(t *testing.T) {
	uniform := &Tree{
		Parent:     []int32{-1, 0, 0, 1, 2},
		EdgeWeight: []float64{0, 5, 5, 2, 2},
		Center:     []graph.Node{0, 0, 1, 0, 1},
		Level:      []int32{2, 1, 1, 0, 0},
		Leaf:       []int32{3, 4},
		Beta:       1.5,
	}
	skewed := &Tree{
		Parent:     []int32{-1, 0, 0, 1, 2},
		EdgeWeight: []float64{0, 5, 7, 2, 3},
		Center:     []graph.Node{0, 0, 1, 0, 1},
		Level:      []int32{2, 1, 1, 0, 0},
		Leaf:       []int32{3, 4},
		Beta:       1.5,
	}
	for _, tr := range []*Tree{uniform, skewed} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := NewOracleIndex([]*Tree{uniform, skewed})
	if err != nil {
		t.Fatal(err)
	}
	if idx.pwStep == 0 {
		t.Fatal("shared table built despite a non-uniform tree")
	}
	want := uniform.Dist(0, 1)
	if d := skewed.Dist(0, 1); d < want {
		want = d
	}
	if got := idx.Min(0, 1); got != want {
		t.Fatalf("Min(0,1)=%v, walk %v (tree 0's weights lost in the restart?)", got, want)
	}
	var per [2]float64
	idx.perTreeDists(0, 1, 0, 2, per[:])
	if per[0] != uniform.Dist(0, 1) || per[1] != skewed.Dist(0, 1) {
		t.Fatalf("per-tree dists %v, want [%v %v]", per, uniform.Dist(0, 1), skewed.Dist(0, 1))
	}
}
