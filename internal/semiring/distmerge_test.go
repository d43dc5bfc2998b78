package semiring

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file pins the k-way SoA merge kernel (distmerge.go): every rung of
// the dispatch ladder against a naive map-based reference, the edge shapes
// the branch-light loops are most likely to get wrong (empty lists between
// singletons, all-equal node IDs, the NodeID boundary values 0 and
// MaxInt32), and the steady-state allocation budget of the aggregation fast
// path over a warmed Scratch.

// refMerge is the naive reference: min per node ID over all shifted lists,
// output sorted by node ID.
func refMerge(ids [][]NodeID, ds [][]float64, shifts []float64) DistMap {
	acc := map[NodeID]float64{}
	for li := range ids {
		for i, node := range ids[li] {
			d := ds[li][i] + shifts[li]
			if old, ok := acc[node]; !ok || d < old {
				acc[node] = d
			}
		}
	}
	nodes := make([]NodeID, 0, len(acc))
	for node := range acc {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	out := NewDistMap(len(nodes))
	for _, node := range nodes {
		out = out.Append(node, acc[node])
	}
	return out
}

// runKernel drives mergeDistInto the way Aggregate does: fresh output slices
// sized to the total input length, a shared scratch.
func runKernel(sc *Scratch, lists []DistMap, shifts []float64) DistMap {
	ids, ds := splitLists(lists)
	sc.growDist(len(ids))
	total := 0
	for _, l := range ids {
		total += len(l)
	}
	oIds := make([]NodeID, 0, total)
	oDs := make([]float64, 0, total)
	oIds, oDs = mergeDistInto(sc, oIds, oDs, ids, ds, shifts)
	return DistMap{ids: oIds, ds: oDs}
}

func splitLists(lists []DistMap) ([][]NodeID, [][]float64) {
	ids := make([][]NodeID, len(lists))
	ds := make([][]float64, len(lists))
	for i, l := range lists {
		ids[i], ds[i] = l.ids, l.ds
	}
	return ids, ds
}

// refMergeLists is refMerge over whole DistMap values.
func refMergeLists(lists []DistMap, shifts []float64) DistMap {
	ids, ds := splitLists(lists)
	return refMerge(ids, ds, shifts)
}

// TestMergeKernelDispatchLadder exercises every rung — direct 1..4, the
// unrolled 8-way, and one to four reduction rounds (with and without
// remainder groups of one: passed through in the first round, copied in
// later ones, and at k = 4097 carried as a remainder through all four) —
// against the reference.
func TestMergeKernelDispatchLadder(t *testing.T) {
	mod := DistMapModule{}
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 25, 32, 33, 40, 64, 65, 72, 100, 512, 513, 520, 4096, 4097, 4105} {
		for trial := 0; trial < 20; trial++ {
			lists := make([]DistMap, k)
			shifts := make([]float64, k)
			for i := range lists {
				lists[i] = randomDistMap(rng, 12)
				shifts[i] = float64(rng.Intn(10))
			}
			var sc Scratch
			got := runKernel(&sc, lists, shifts)
			want := refMergeLists(lists, shifts)
			if !mod.Equal(got, want) {
				t.Fatalf("k=%d trial=%d: kernel %v ≠ reference %v", k, trial, got, want)
			}
			if !got.IsSorted() {
				t.Fatalf("k=%d trial=%d: output not sorted: %v", k, trial, got)
			}
		}
	}
}

// TestMergeKernelEmptyListsInterleaved pins the sentinel handling: exhausted-
// from-the-start cursors between singletons must not emit, block, or reorder
// anything, on every ladder rung.
func TestMergeKernelEmptyListsInterleaved(t *testing.T) {
	mod := DistMapModule{}
	for _, k := range []int{2, 3, 4, 5, 8, 9, 17, 33, 65, 520, 4096, 4097, 4105} {
		lists := make([]DistMap, k)
		shifts := make([]float64, k)
		for i := range lists {
			if i%2 == 0 {
				lists[i] = DistMap{} // empty between the singletons
			} else {
				lists[i] = SingletonDist(NodeID(i), float64(i))
			}
			shifts[i] = 1
		}
		var sc Scratch
		got := runKernel(&sc, lists, shifts)
		want := refMergeLists(lists, shifts)
		if !mod.Equal(got, want) {
			t.Fatalf("k=%d: kernel %v ≠ reference %v", k, got, want)
		}
	}
}

// TestMergeKernelAllEqualIDs pins duplicate combination: k lists all holding
// the same node ID must collapse to one entry carrying the minimum shifted
// distance — the left fold of Add over equal keys.
func TestMergeKernelAllEqualIDs(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8, 9, 17, 33, 65, 520} {
		lists := make([]DistMap, k)
		shifts := make([]float64, k)
		for i := range lists {
			lists[i] = SingletonDist(7, float64(10+i))
			shifts[i] = float64(k - i) // minimum lands mid-pack, not at an end
		}
		var sc Scratch
		got := runKernel(&sc, lists, shifts)
		if got.Len() != 1 || got.Node(0) != 7 {
			t.Fatalf("k=%d: want single entry for node 7, got %v", k, got)
		}
		want := math.Inf(1)
		for i := range lists {
			if d := lists[i].Dist(0) + shifts[i]; d < want {
				want = d
			}
		}
		if got.Dist(0) != want {
			t.Fatalf("k=%d: min = %v, want %v", k, got.Dist(0), want)
		}
	}
}

// TestMergeKernelBoundaryNodeIDs pins the int64-widened sentinel against the
// NodeID extremes: 0 and MaxInt32 are valid IDs and must merge below the
// sentinel on every rung.
func TestMergeKernelBoundaryNodeIDs(t *testing.T) {
	mod := DistMapModule{}
	maxID := NodeID(math.MaxInt32)
	for _, k := range []int{2, 3, 4, 5, 8, 9, 17, 33, 65, 520} {
		lists := make([]DistMap, k)
		shifts := make([]float64, k)
		for i := range lists {
			m := NewDistMap(2)
			m = m.Append(0, float64(i))
			m = m.Append(maxID, float64(100+i))
			lists[i] = m
			shifts[i] = float64(i % 3)
		}
		var sc Scratch
		got := runKernel(&sc, lists, shifts)
		want := refMergeLists(lists, shifts)
		if !mod.Equal(got, want) {
			t.Fatalf("k=%d: kernel %v ≠ reference %v", k, got, want)
		}
		if got.Len() != 2 || got.Node(0) != 0 || got.Node(1) != maxID {
			t.Fatalf("k=%d: boundary IDs mangled: %v", k, got)
		}
	}
}

// TestAggregateMatchesReference drives the public entry point — Aggregate,
// unfiltered and filtered — over random shapes with dead terms (∞ scalars, ⊥
// states) mixed in, against the reference built from the surviving terms.
func TestAggregateMatchesReference(t *testing.T) {
	mod := DistMapModule{}
	rng := rand.New(rand.NewSource(12))
	var sc Scratch
	for trial := 0; trial < 300; trial++ {
		self := randomDistMap(rng, 8)
		k := rng.Intn(40)
		terms := make([]Term[float64, DistMap], k)
		var ids [][]NodeID
		var ds [][]float64
		var shifts []float64
		if self.Len() > 0 {
			ids, ds, shifts = append(ids, self.ids), append(ds, self.ds), append(shifts, 0)
		}
		for i := range terms {
			s := float64(rng.Intn(8))
			if rng.Intn(8) == 0 {
				s = Inf // dead edge
			}
			x := randomDistMap(rng, 8)
			terms[i] = Term[float64, DistMap]{S: s, X: x}
			if !IsInf(s) && x.Len() > 0 {
				ids, ds, shifts = append(ids, x.ids), append(ds, x.ds), append(shifts, s)
			}
		}
		want := refMerge(ids, ds, shifts)
		got := mod.Aggregate(&sc, self, terms, nil)
		if !mod.Equal(got, want) {
			t.Fatalf("trial %d: Aggregate %v ≠ reference %v", trial, got, want)
		}
		filter := TopKFilter(3, Inf, nil)
		gotF := mod.Aggregate(&sc, self, terms, filter)
		wantF := filter(want.Clone())
		if !mod.Equal(gotF, wantF) {
			t.Fatalf("trial %d: filtered Aggregate %v ≠ filtered reference %v", trial, gotF, wantF)
		}
	}
}

// TestAggregateFilteredOwnership pins the ownership contract of the
// filtered Aggregate, which hands its filter the merge in scratch: the result
// must survive scratch reuse and mutation without disturbing the inputs.
func TestAggregateFilteredOwnership(t *testing.T) {
	mod := DistMapModule{}
	var sc Scratch
	self := dm(Entry{1, 5}, Entry{3, 2})
	terms := []Term[float64, DistMap]{
		{S: 1, X: dm(Entry{2, 1}, Entry{3, 9})},
		{S: 2, X: dm(Entry{1, 1}, Entry{4, 4})},
	}
	out := mod.Aggregate(&sc, self, terms, TopKFilter(8, Inf, nil))
	snapshot := out.Clone()
	// Scribble over the scratch with an unrelated merge, then mutate out.
	mod.Aggregate(&sc, dm(Entry{9, 9}), terms, TopKFilter(1, Inf, nil))
	if !mod.Equal(out, snapshot) {
		t.Fatalf("result changed under scratch reuse: %v ≠ %v", out, snapshot)
	}
	scribble(out)
	if self.Dist(0) != 5 || terms[0].X.Dist(0) != 1 {
		t.Fatal("mutating the filtered result reached an input")
	}
}

// TestAllocPairsSharedBlock pins the shared-block allocator behind every
// fresh DistMap: both arrays come back with capacity exactly n, carved from
// one block, and filling each to capacity must not let the id region and
// the distance region overlap. Appending past capacity must reallocate away
// without disturbing the other half.
func TestAllocPairsSharedBlock(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64} {
		ids, ds := allocPairs(n)
		if len(ids) != 0 || len(ds) != 0 || cap(ids) != n || cap(ds) != n {
			t.Fatalf("n=%d: len/cap = %d/%d ids, %d/%d ds, want 0/%d both",
				n, len(ids), cap(ids), len(ds), cap(ds), n)
		}
		for i := 0; i < n; i++ {
			ids = append(ids, NodeID(i+1))
			ds = append(ds, float64(-i)-0.5)
		}
		for i := 0; i < n; i++ {
			if ids[i] != NodeID(i+1) || ds[i] != float64(-i)-0.5 {
				t.Fatalf("n=%d: regions overlap: ids[%d]=%d ds[%d]=%v", n, i, ids[i], i, ds[i])
			}
		}
		// Growth past the shared block must not touch the other half.
		grown := append(ids, NodeID(n+1))
		_ = grown
		for i := 0; i < n; i++ {
			if ds[i] != float64(-i)-0.5 {
				t.Fatalf("n=%d: growing ids corrupted ds[%d]=%v", n, i, ds[i])
			}
		}
	}
	if ids, ds := allocPairs(0); ids != nil || ds != nil {
		t.Fatalf("allocPairs(0) = %v, %v, want nil, nil", ids, ds)
	}
}

// TestAggregateAllocsWarmScratch is the steady-state allocation budget of
// the fast path (the scratch pre-sizing contract of Scratch.growDist):
// over a warmed Scratch, Aggregate allocates exactly the output — one
// shared id/distance block (allocPairs) — on every ladder rung, unfiltered
// and filtered.
func TestAggregateAllocsWarmScratch(t *testing.T) {
	mod := DistMapModule{}
	rng := rand.New(rand.NewSource(13))
	filter := TopKFilter(8, Inf, nil)
	for _, k := range []int{2, 4, 8, 16, 33, 40, 65, 600} {
		self := randomDistMap(rng, 8)
		terms := make([]Term[float64, DistMap], k)
		for i := range terms {
			terms[i] = Term[float64, DistMap]{S: float64(1 + rng.Intn(5)), X: randomDistMap(rng, 8)}
		}
		var sc Scratch
		mod.Aggregate(&sc, self, terms, nil) // warm the pooled buffers
		if allocs := testing.AllocsPerRun(50, func() {
			mod.Aggregate(&sc, self, terms, nil)
		}); allocs > 1 {
			t.Errorf("k=%d: Aggregate allocates %.0f/op over warm scratch, want ≤ 1", k, allocs)
		}
		mod.Aggregate(&sc, self, terms, filter)
		if allocs := testing.AllocsPerRun(50, func() {
			mod.Aggregate(&sc, self, terms, filter)
		}); allocs > 1 {
			t.Errorf("k=%d: filtered Aggregate allocates %.0f/op over warm scratch, want ≤ 1", k, allocs)
		}
	}
}
