package graph

import (
	"sort"
	"testing"

	"parmbf/internal/par"
)

// detectSymmetric reports whether every arc of g has an equal-weight
// reverse arc, by binary search over the target's sorted row — O(m log Δ).
// Graphs are undirected, so every construction path must pass it; the
// tests assert it rather than paying the scan on every Freeze.
func detectSymmetric(g *Graph) bool {
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Neighbors(Node(u)) {
			if i := g.NeighborIndex(a.To, Node(u)); i < 0 || g.Neighbors(a.To)[i].Weight != a.Weight {
				return false
			}
		}
	}
	return true
}

// directedCSR builds a Graph directly from directed arcs (from, to, w),
// bypassing the Builder, which only produces symmetric graphs: the only way
// to hand detectSymmetric an asymmetric arc set.
func directedCSR(n int, arcs [][3]float64) *Graph {
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i][0] != arcs[j][0] {
			return arcs[i][0] < arcs[j][0]
		}
		return arcs[i][1] < arcs[j][1]
	})
	g := &Graph{rowStart: make([]int32, n+1), m: len(arcs)}
	for _, a := range arcs {
		g.rowStart[int(a[0])+1]++
	}
	for v := 0; v < n; v++ {
		g.rowStart[v+1] += g.rowStart[v]
	}
	for _, a := range arcs {
		g.arcs = append(g.arcs, Arc{To: Node(a[1]), Weight: a[2]})
	}
	return g
}

// TestFreezeDetectsSymmetry: every Builder-frozen graph carries both halves
// of each edge with the same lightest weight, serial and parallel scatter
// alike, and the edgeless graph is trivially symmetric.
func TestFreezeDetectsSymmetry(t *testing.T) {
	rng := par.NewRNG(41)
	for _, n := range []int{8, 17, 64} {
		if g := RandomConnected(n, 3*n, 9, rng); !detectSymmetric(g) {
			t.Fatalf("n=%d: Freeze output is not symmetric", n)
		}
	}
	b := randomBuilder(1<<10, 1<<12, 43)
	if g := b.freezeParallel(); !detectSymmetric(g) {
		t.Fatal("parallel Freeze output is not symmetric")
	}
	if !detectSymmetric(New(5)) {
		t.Fatal("edgeless graph must be trivially symmetric")
	}
}

// TestDetectSymmetric pins the detector on hand-built directed arc sets:
// missing reverse arcs and weight-mismatched reverse arcs are both
// asymmetric.
func TestDetectSymmetric(t *testing.T) {
	if g := directedCSR(3, [][3]float64{{0, 1, 2}, {1, 0, 2}, {1, 2, 5}, {2, 1, 5}}); !detectSymmetric(g) {
		t.Fatal("matched reverse arcs flagged asymmetric")
	}
	if g := directedCSR(3, [][3]float64{{0, 1, 2}, {1, 2, 5}, {2, 1, 5}}); detectSymmetric(g) {
		t.Fatal("missing reverse arc 1→0 not detected")
	}
	if g := directedCSR(2, [][3]float64{{0, 1, 2}, {1, 0, 3}}); detectSymmetric(g) {
		t.Fatal("weight mismatch on reverse arc not detected")
	}
}
