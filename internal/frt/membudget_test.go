package frt

import (
	"runtime"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// retainedBytes reports how many heap bytes build's return value retains:
// the HeapAlloc delta across the call after garbage collection has settled
// on both sides. The measurement is deliberately coarse (GC bookkeeping and
// allocator rounding land in the delta too), so callers assert generous
// ceilings, not exact sizes.
func retainedBytes(build func() any) (any, int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return v, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestMemoryBudget pins the per-layer retained-memory budget of the scale
// pipeline at n = 2^16 — the table in README.md §"Scaling to 10^6 nodes".
// Each layer is built in turn, its retained bytes divided by n, and the
// result asserted against the documented ceiling. The ceilings carry ~2×
// headroom over the measured values, so the test fails only on a structural
// blow-up (an accidental per-node allocation, a dense K×n copy, a dropped
// sharing optimisation), not on allocator noise; update README.md alongside
// any deliberate change here.
func TestMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("2^16-node pipeline (~10s)")
	}
	const n = 1 << 16
	budget := func(layer string, bytes int64, perNodeMax float64) {
		perNode := float64(bytes) / n
		t.Logf("%-16s %8.1f B/node (budget %.0f)", layer, perNode, perNodeMax)
		if perNode > perNodeMax {
			t.Errorf("%s: %.1f B/node exceeds the documented budget of %.0f", layer, perNode, perNodeMax)
		}
	}

	// Layer 1: the CSR graph. ~16 B per directed arc (Arc = int32 + pad +
	// float64) plus 4 B/node of row offsets; avg degree 8 → ≈ 132 B/node.
	gv, bytes := retainedBytes(func() any {
		return graph.ChungLu(n, 8, 2.5, 100, par.NewRNG(42))
	})
	g := gv.(*graph.Graph)
	budget("graph CSR", bytes, 256)

	// Layer 2: LE-list initial states. One bulk carve: 48 B of DistMap
	// header plus one 12 B (node, dist) pair per node.
	_, bytes = retainedBytes(func() any { return InitialStates(n) })
	budget("initial states", bytes, 96)

	// Layer 3: LE lists at the fixpoint. O(log n) entries w.h.p. (Lemma
	// 7.6) at 12 B each, plus the 48 B header.
	order := NewOrder(n, par.NewRNG(7))
	lv, bytes := retainedBytes(func() any {
		lists, _ := leListsOnGraph(g, order, nil)
		return lists
	})
	lists := lv.([]semiring.DistMap)
	budget("LE lists", bytes, 768)

	// Layer 4: K=2 sampled trees. ~20 B per tree node (parent, weight,
	// center, level) plus the 4 B leaf pointer per graph node; tree nodes
	// number ≤ n per populated level but collapse sharply above the leaves.
	tv, bytes := retainedBytes(func() any {
		t0, err := BuildTree(lists, order, 1.25)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := BuildTree(lists, order, 1.75)
		if err != nil {
			t.Fatal(err)
		}
		return []*Tree{t0, t1}
	})
	trees := tv.([]*Tree)
	budget("trees (K=2)", bytes, 512)

	// Layer 5: the oracle index. Packed merge-height words (16-bit lanes
	// above the split, 32-bit below) and the weight table, one shared row
	// per tree for these BuildTree trees.
	iv, bytes := retainedBytes(func() any {
		idx, err := NewOracleIndex(trees)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	})
	idx := iv.(*OracleIndex)
	budget("oracle index", bytes, 128)

	// The layers must still answer queries after measurement (guards
	// against the GC having collected something the budget claims alive).
	d := graph.Dijkstra(g, 0)
	for _, v := range []graph.Node{1, 17, n / 2, n - 1} {
		got := idx.Min(0, v)
		if got < d.Dist[v] {
			t.Errorf("Min(0,%d) = %v below graph distance %v (dominance violated)", v, got, d.Dist[v])
		}
	}
	// Earlier layers must stay reachable while later ones are measured, or
	// their collection would be subtracted from a later layer's delta.
	runtime.KeepAlive(lists)
	runtime.KeepAlive(trees)
}
