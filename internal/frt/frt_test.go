package frt

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/semiring/semiringtest"
)

func TestNewOrderIsPermutation(t *testing.T) {
	rng := par.NewRNG(1)
	o := NewOrder(50, rng)
	seen := make([]bool, 50)
	for _, r := range o.Rank {
		if r >= 50 || seen[r] {
			t.Fatalf("ranks not a permutation: %v", o.Rank)
		}
		seen[r] = true
	}
}

// bruteLE computes the LE list of Definition 7.3 by direct domination
// checks.
func bruteLE(x semiring.DistMap, o *Order) semiring.DistMap {
	out := semiring.DistMap{}
	for _, e := range x.Entries() {
		dominated := false
		for _, f := range x.Entries() {
			if o.Rank[f.Node] < o.Rank[e.Node] && f.Dist <= e.Dist {
				dominated = true
				break
			}
		}
		if !dominated {
			out = out.Append(e.Node, e.Dist)
		}
	}
	return out
}

// TestLEFilterMatchesBruteForce pins Order.Filter to bruteLE on random maps
// with many tied distances, and to the contract of every semiring.Filter: it
// leaves its input bitwise unchanged and returns the input itself or a map
// sharing no storage with it. At n = 80 lists outgrow Relabel's
// insertion-sort range.
func TestLEFilterMatchesBruteForce(t *testing.T) {
	rng := par.NewRNG(2)
	for _, n := range []int{20, 80} {
		o := NewOrder(n, rng)
		filter := o.Filter()
		for trial := 0; trial < 100; trial++ {
			x := semiring.DistMap{}
			for node := semiring.NodeID(0); node < semiring.NodeID(n); node++ {
				if rng.Float64() < 0.5 {
					x = x.Append(node, float64(rng.Intn(8)))
				}
			}
			before := x.Entries()
			got := filter(x)
			want := bruteLE(x, o)
			if !slices.Equal(got.Entries(), want.Entries()) {
				t.Fatalf("filter %v ≠ brute force %v for %v", got, want, x)
			}
			if !slices.EqualFunc(x.Entries(), before, func(a, b semiring.Entry) bool {
				return a.Node == b.Node && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
			}) {
				t.Fatalf("filter wrote its input: %v, was %v", x, before)
			}
			if gs, xs := storage(got), storage(x); gs != xs {
				for _, a := range gs {
					for _, b := range xs {
						if a[0] < b[1] && b[0] < a[1] {
							t.Fatalf("filter(%v) = %v shares storage with its input", x, got)
						}
					}
				}
			}
		}
	}
}

// storage returns the address ranges [start, end) of x's two backing
// arrays, read through reflection since DistMap keeps them unexported.
func storage(x semiring.DistMap) (spans [2][2]uintptr) {
	v := reflect.ValueOf(x)
	for i := range spans {
		f := v.Field(i)
		p := f.Pointer()
		spans[i] = [2]uintptr{p, p + uintptr(f.Len())*f.Type().Elem().Size()}
	}
	return spans
}

func TestLEFilterIsCongruence(t *testing.T) {
	rng := par.NewRNG(3)
	o := NewOrder(12, rng)
	var elems []semiring.DistMap
	elems = append(elems, semiring.DistMap{})
	for i := 0; i < 12; i++ {
		x := semiring.DistMap{}
		for node := semiring.NodeID(0); node < 12; node++ {
			if rng.Float64() < 0.4 {
				x = x.Append(node, float64(rng.Intn(10)))
			}
		}
		elems = append(elems, x)
	}
	err := semiringtest.CheckFilterCongruence[float64, semiring.DistMap](
		semiring.DistMapModule{}, o.Filter(), []float64{0, 1, 3, semiring.Inf}, elems)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLEFilterOutputShape(t *testing.T) {
	rng := par.NewRNG(4)
	o := NewOrder(30, rng)
	filter := o.Filter()
	x := semiring.NewDistMap(30)
	for node := semiring.NodeID(0); node < 30; node++ {
		x = x.Append(node, float64(rng.Intn(100)))
	}
	got := filter(x)
	if !got.IsSorted() {
		t.Fatal("LE filter output not sorted by node")
	}
	// In rank order, distances strictly decrease: the Staircase invariant
	// the rank-keyed tree construction reads.
	byRank := got.Relabel(o.MustKeys(30).Key)
	for i := 1; i < byRank.Len(); i++ {
		if byRank.Dist(i) >= byRank.Dist(i-1) {
			t.Fatalf("distances not strictly decreasing along rank order: %v", byRank)
		}
	}
	// The minimum-rank node, when present, always survives.
	first := graph.Node(slices.Index(o.Rank, 0))
	if x.Get(first) != semiring.Inf && got.Get(first) == semiring.Inf {
		t.Fatal("rank-0 entry filtered out")
	}
}

func TestLEListsOnGraphMatchExactMetricLE(t *testing.T) {
	rng := par.NewRNG(5)
	g := graph.RandomConnected(40, 90, 8, rng)
	o := NewOrder(g.N(), rng)
	lists, iters := leListsOnGraph(g, o, nil)
	if iters > g.N() {
		t.Fatalf("no fixpoint after %d iterations", iters)
	}
	exact := graph.APSPDijkstra(g)
	filter := o.Filter()
	mod := semiring.DistMapModule{}
	for v := 0; v < g.N(); v++ {
		full := semiring.NewDistMap(g.N())
		for w := 0; w < g.N(); w++ {
			full = full.Append(graph.Node(w), exact.At(v, w))
		}
		want := filter(full)
		if !mod.Equal(lists[v], want) {
			t.Fatalf("node %d: LE list %v ≠ exact %v", v, lists[v], want)
		}
	}
}

func TestLEListsFromMetricMatchesGraphLE(t *testing.T) {
	rng := par.NewRNG(6)
	g := graph.RandomConnected(30, 70, 5, rng)
	rk := NewOrder(g.N(), rng).MustKeys(g.N())
	fromGraph, _ := leListsRanked(g, []RankKeys{rk}, nil)
	fromMetric := exactLELists(graph.APSPDijkstra(g), rk, nil)
	mod := semiring.DistMapModule{}
	for v := range fromMetric {
		if !mod.Equal(fromGraph[0][v], fromMetric[v]) {
			t.Fatalf("node %d: %v vs %v", v, fromGraph[0][v], fromMetric[v])
		}
	}
}

func TestLEListLengthsLogarithmic(t *testing.T) {
	// Lemma 7.6: |r(x)| ∈ O(log n) w.h.p. Generous constant: 8·ln n.
	rng := par.NewRNG(7)
	g := graph.RandomConnected(300, 900, 10, rng)
	o := NewOrder(g.N(), rng)
	lists, _ := leListsOnGraph(g, o, nil)
	bound := int(8 * math.Log(float64(g.N())))
	for v, l := range lists {
		if l.Len() > bound {
			t.Fatalf("LE list of node %d has length %d, exceeding 8·ln n = %d", v, l.Len(), bound)
		}
	}
}

func TestBuildTreeTinyExample(t *testing.T) {
	// Path 0—1—2 with unit weights and a fixed order.
	g := graph.PathGraph(3, 1)
	o := &Order{Rank: []uint64{1, 0, 2}} // node 1 is the minimum
	lists, _ := leListsOnGraph(g, o, nil)
	tree, err := BuildTree(lists, o, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Center[0] != 1 {
		t.Fatalf("root center = %d, want 1 (the min-rank node)", tree.Center[0])
	}
	// Dominance on all pairs.
	exact := graph.APSPDijkstra(g)
	for u := graph.Node(0); u < 3; u++ {
		for v := graph.Node(0); v < 3; v++ {
			if td, gd := tree.Dist(u, v), exact.At(int(u), int(v)); td < gd {
				t.Fatalf("dominance violated: dist_T(%d,%d)=%v < %v", u, v, td, gd)
			}
		}
	}
	if tree.Dist(0, 0) != 0 {
		t.Fatal("self distance not 0")
	}
	if tree.Dist(0, 2) != tree.Dist(2, 0) {
		t.Fatal("tree distance not symmetric")
	}
}

func TestBuildTreeRejectsBadInput(t *testing.T) {
	o := &Order{Rank: []uint64{0}}
	if _, err := BuildTree(nil, o, 1.5); err == nil {
		t.Fatal("empty input accepted")
	}
	lists := []semiring.DistMap{semiring.SingletonDist(0, 0)}
	if _, err := BuildTree(lists, o, 2.5); err == nil {
		t.Fatal("β out of range accepted")
	}
	if _, err := BuildTree([]semiring.DistMap{{}}, o, 1.5); err == nil {
		t.Fatal("empty LE list accepted")
	}
	if _, err := BuildTree([]semiring.DistMap{semiring.SingletonDist(5, 0)}, o, 1.5); err == nil {
		t.Fatal("LE list naming a node outside the graph accepted")
	}
	if _, err := BuildTree(lists, &Order{Rank: []uint64{0, 1}}, 1.5); err == nil {
		t.Fatal("order of the wrong length accepted")
	}
	if _, err := BuildTree(lists, &Order{Rank: []uint64{3}}, 1.5); err == nil {
		t.Fatal("order that is not a permutation of 0..n−1 accepted")
	}
}

func TestSampleOnGraphDominance(t *testing.T) {
	rng := par.NewRNG(8)
	g := graph.RandomConnected(50, 120, 6, rng)
	exact := graph.APSPDijkstra(g)
	for trial := 0; trial < 5; trial++ {
		emb, err := SampleOnGraph(g, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := emb.Tree.Validate(); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				td := emb.Tree.Dist(graph.Node(u), graph.Node(v))
				if td < exact.At(u, v)-1e-9 {
					t.Fatalf("trial %d: dominance violated at (%d,%d): %v < %v",
						trial, u, v, td, exact.At(u, v))
				}
			}
		}
	}
}

func TestSampleOraclePipeline(t *testing.T) {
	rng := par.NewRNG(9)
	g := graph.RandomConnected(60, 150, 6, rng)
	emb, err := Sample(g, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dominance w.r.t. G: dist_T ≥ dist_H ≥ dist_G.
	exact := graph.APSPDijkstra(g)
	for u := 0; u < g.N(); u += 7 {
		for v := u + 1; v < g.N(); v += 5 {
			td := emb.Tree.Dist(graph.Node(u), graph.Node(v))
			if td < exact.At(u, v)-1e-9 {
				t.Fatalf("dominance violated at (%d,%d): %v < %v", u, v, td, exact.At(u, v))
			}
		}
	}
}

func TestSamplePolylogIterationsOnPath(t *testing.T) {
	if testing.Short() {
		t.Skip("slow test: skipped with -short")
	}
	// On a path (SPD = n−1) the oracle must reach its fixpoint in
	// polylogarithmically many iterations — the whole point of H.
	rng := par.NewRNG(10)
	g := graph.PathGraph(200, 1)
	emb, err := Sample(g, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	if cap := 4 * 9 * 9; emb.Iterations > cap {
		t.Fatalf("oracle used %d iterations on path-200, cap %d", emb.Iterations, cap)
	}
	if emb.Iterations >= 199 {
		t.Fatalf("oracle iterations %d did not beat SPD(G)=199", emb.Iterations)
	}
}

func TestSampleRequiresRNG(t *testing.T) {
	g := graph.PathGraph(4, 1)
	if _, err := Sample(g, Options{}); err == nil {
		t.Fatal("missing RNG accepted")
	}
}

func TestSampleHopSetVariants(t *testing.T) {
	rng := par.NewRNG(11)
	g := graph.RandomConnected(40, 100, 5, rng)
	for _, kind := range []HopSetKind{HopSetSkeleton, HopSetLandmark, HopSetNone} {
		emb, err := Sample(g, Options{RNG: rng, HopSet: kind})
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if err := emb.Tree.Validate(); err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
	}
}

func TestExpectedStretchLogarithmic(t *testing.T) {
	// Experiment E1 in miniature: the empirical expected stretch over 20
	// trees must stay within a generous O(log n) envelope. (The theorem is
	// about expectations; 20 trees with a fixed seed keeps this stable.)
	rng := par.NewRNG(13)
	g := graph.RandomConnected(64, 160, 6, rng)
	stats, err := MeasureStretch(g,
		func() (*Embedding, error) { return SampleOnGraph(g, rng, nil) },
		20, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinRatio < 1-1e-9 {
		t.Fatalf("dominance violated: min ratio %v", stats.MinRatio)
	}
	bound := 8 * math.Log2(float64(g.N()))
	if stats.MaxAvgStretch > bound {
		t.Fatalf("max expected stretch %.2f exceeds 8·log₂n = %.2f", stats.MaxAvgStretch, bound)
	}
	if stats.AvgStretch < 1 {
		t.Fatalf("average stretch %v below 1", stats.AvgStretch)
	}
}

func TestOraclePipelineStretchClose(t *testing.T) {
	if testing.Short() {
		t.Skip("slow test: skipped with -short")
	}
	// The oracle pipeline embeds H, which (1+o(1))-approximates G; its
	// stretch envelope should match the direct pipeline's up to that slack.
	rng := par.NewRNG(14)
	g := graph.GridGraph(8, 8, 4, rng)
	stats, err := MeasureStretch(g,
		func() (*Embedding, error) { return Sample(g, Options{RNG: rng}) },
		10, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinRatio < 1-1e-9 {
		t.Fatalf("dominance violated through H: %v", stats.MinRatio)
	}
	bound := 10 * math.Log2(float64(g.N()))
	if stats.MaxAvgStretch > bound {
		t.Fatalf("stretch %.2f exceeds envelope %.2f", stats.MaxAvgStretch, bound)
	}
}

func TestTreeDepthLogarithmicInWeightRange(t *testing.T) {
	rng := par.NewRNG(17)
	g := graph.RandomConnected(50, 120, 8, rng)
	emb, err := SampleOnGraph(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Depth ∈ O(log(n · wmax/wmin)): generous cap.
	if d := emb.Tree.Depth(); d > 40 {
		t.Fatalf("tree depth %d implausibly large", d)
	}
}

func TestRandomBetaDistribution(t *testing.T) {
	rng := par.NewRNG(18)
	// β = 2^U: all values in [1,2), median at 2^0.5 ≈ 1.414.
	below := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		b := RandomBeta(rng)
		if b < 1 || b >= 2 {
			t.Fatalf("β = %v out of range", b)
		}
		if b < math.Sqrt2 {
			below++
		}
	}
	frac := float64(below) / trials
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("P[β < √2] = %.3f, want ≈ 0.5", frac)
	}
}

// TestLEListsOnGraphBatchMatchesPerOrder pins the batched LE-list
// construction: B independent orders must produce, order for order, exactly
// the lists and iteration counts of the per-order runs, and of a node-keyed
// reference fixpoint (InitialStates + Order.Filter) — the batch runs on
// rank-keyed lists, so this also checks that its node-sorted output survives
// the conversion back.
func TestLEListsOnGraphBatchMatchesPerOrder(t *testing.T) {
	rng := par.NewRNG(31)
	graphs := append(rankKeyGraphs(), struct {
		name string
		g    *graph.Graph
	}{"small", graph.RandomConnected(36, 85, 7, rng)})
	mod := semiring.DistMapModule{}
	for _, tc := range graphs {
		g := tc.g
		orders := make([]*Order, 4)
		for i := range orders {
			orders[i] = NewOrder(g.N(), rng)
		}
		gotLists, gotIters := LEListsOnGraphBatch(g, orders, nil)
		for b, o := range orders {
			want, wantIters := leListsOnGraph(g, o, nil)
			ref := &mbf.Runner[float64, semiring.DistMap]{
				Graph:  g,
				Module: mod,
				Filter: o.Filter(),
				Weight: mbf.MinPlusWeight,
			}
			refLists, refIters := ref.RunToFixpoint(InitialStates(g.N()), g.N())
			if gotIters[b] != wantIters || gotIters[b] != refIters {
				t.Fatalf("%s order %d: batch ran %d iterations, solo %d, node-keyed %d", tc.name, b, gotIters[b], wantIters, refIters)
			}
			for v := range want {
				l := gotLists[b][v]
				if !l.IsSorted() || !mod.Equal(l, want[v]) || !mod.Equal(l, refLists[v]) {
					t.Fatalf("%s order %d node %d: batch %v, solo %v, node-keyed %v", tc.name, b, v, l, want[v], refLists[v])
				}
			}
		}
	}
}

// TestLEListsOnGraphBatchTracker pins the cost-model charge of the batched
// LE lists: the orders are independent parallel work (§1.2), so the batch
// charges the sum of the per-order works and the maximum of their depths —
// not their summed depth.
func TestLEListsOnGraphBatchTracker(t *testing.T) {
	rng := par.NewRNG(37)
	g := graph.RandomConnected(96, 300, 8, rng)
	orders := make([]*Order, 5)
	for i := range orders {
		orders[i] = NewOrder(g.N(), rng)
	}
	var wantWork, wantDepth, sumDepth int64
	for _, o := range orders {
		tk := &par.Tracker{}
		leListsOnGraph(g, o, tk)
		if tk.Work() == 0 || tk.Depth() == 0 {
			t.Fatalf("per-order run charged work %d, depth %d", tk.Work(), tk.Depth())
		}
		wantWork += tk.Work()
		wantDepth = max(wantDepth, tk.Depth())
		sumDepth += tk.Depth()
	}
	tk := &par.Tracker{}
	LEListsOnGraphBatch(g, orders, tk)
	if tk.Work() != wantWork || tk.Depth() != wantDepth {
		t.Fatalf("batch charged work %d, depth %d; want work %d (Σ per order), depth %d (max per order; Σ is %d)",
			tk.Work(), tk.Depth(), wantWork, wantDepth, sumDepth)
	}
}
