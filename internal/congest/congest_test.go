package congest

import (
	"sort"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func TestKhanListsMatchExactLE(t *testing.T) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(40, 100, 6, rng)
	res := Khan(g, rng)
	exact := graph.APSPDijkstra(g)
	filter := res.Order.Filter()
	mod := semiring.DistMapModule{}
	for v := 0; v < g.N(); v++ {
		full := semiring.NewDistMap(g.N())
		for w := 0; w < g.N(); w++ {
			full = full.Append(graph.Node(w), exact.At(v, w))
		}
		if want := filter(full); !mod.Equal(res.Lists[v], want) {
			t.Fatalf("node %d: %v vs %v", v, res.Lists[v], want)
		}
	}
}

// TestKhanMatchesLEListsOnGraphBatch pins Khan's simulation to the library's
// direct LE lists: the same fixpoint under the same order, with the same
// iteration count, on a low-SPD and a high-SPD graph.
func TestKhanMatchesLEListsOnGraphBatch(t *testing.T) {
	rng := par.NewRNG(7)
	mod := semiring.DistMapModule{}
	for _, g := range []*graph.Graph{graph.RandomConnected(60, 150, 6, rng), starPath(80)} {
		res := Khan(g, rng)
		lists, iters := frt.LEListsOnGraphBatch(g, []*frt.Order{res.Order}, nil)
		if res.Iterations != iters[0] {
			t.Fatalf("n=%d: Khan ran %d iterations, LEListsOnGraphBatch %d", g.N(), res.Iterations, iters[0])
		}
		for v := range lists[0] {
			if !mod.Equal(res.Lists[v], lists[0][v]) {
				t.Fatalf("n=%d node %d: Khan %v ≠ LEListsOnGraphBatch %v", g.N(), v, res.Lists[v], lists[0][v])
			}
		}
	}
}

func TestKhanRoundsScaleWithSPD(t *testing.T) {
	rng := par.NewRNG(2)
	longPath := graph.PathGraph(200, 1)
	shortcutted := graph.RandomConnected(200, 2000, 4, rng)
	r1 := Khan(longPath, rng)
	r2 := Khan(shortcutted, rng)
	if r1.Rounds <= r2.Rounds {
		t.Fatalf("Khan on SPD-199 path (%d rounds) should cost more than on a dense random graph (%d rounds)",
			r1.Rounds, r2.Rounds)
	}
	// The filtered iteration may reach its fixpoint before SPD (dominated
	// far entries stop changing early), but on a path it still needs far
	// more than polylogarithmically many iterations.
	if r1.Iterations < 50 {
		t.Fatalf("Khan needed only %d iterations on path-200", r1.Iterations)
	}
}

// starPath returns a unit-weight path on n nodes plus a central hub (node n)
// connected to every path node by an edge of weight 2n. The hub collapses
// the hop diameter to 2 while the heavy edges never lie on shortest paths,
// so SPD stays n−1 — the regime where Khan's O(SPD·log n) rounds lose to
// the skeleton algorithm's Õ(√n + D) (§8, experiment E9).
func starPath(n int) *graph.Graph {
	b := graph.NewBuilder(n + 1)
	for v := 0; v+1 < n; v++ {
		b.Add(graph.Node(v), graph.Node(v+1), 1)
	}
	hub := graph.Node(n)
	for v := 0; v < n; v++ {
		b.Add(hub, graph.Node(v), float64(2*n))
	}
	return b.Freeze()
}

func TestSkeletonFirstOrder(t *testing.T) {
	rng := par.NewRNG(3)
	skeleton := []graph.Node{3, 7, 11}
	o := NewSkeletonFirstOrder(20, skeleton, rng)
	ranks := sortedSkeletonRanks(o, skeleton)
	for i, r := range ranks {
		if r != uint64(i) {
			t.Fatalf("skeleton ranks %v, want 0..%d", ranks, len(skeleton)-1)
		}
	}
	// All ranks are a permutation.
	seen := make([]bool, 20)
	for _, r := range o.Rank {
		if seen[r] {
			t.Fatal("duplicate rank")
		}
		seen[r] = true
	}
}

func TestSkeletonDominanceAndStretch(t *testing.T) {
	rng := par.NewRNG(4)
	g := graph.RandomConnected(80, 200, 6, rng)
	res := Skeleton(g, rng, SkeletonOptions{})
	tree, err := frt.BuildTree(res.Lists, res.Order, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	exact := graph.APSPDijkstra(g)
	for u := 0; u < g.N(); u += 3 {
		for v := u + 1; v < g.N(); v += 5 {
			td := tree.Dist(graph.Node(u), graph.Node(v))
			if td < exact.At(u, v)-1e-9 {
				t.Fatalf("dominance violated at (%d,%d): %v < %v", u, v, td, exact.At(u, v))
			}
		}
	}
}

// TestSkeletonListsMatchOverlayLE validates the distributed computation
// against LE lists computed directly on the explicit overlay H of
// Equations 8.16–8.18 (a w.h.p. statement; the fixed seed keeps it stable).
func TestSkeletonListsMatchOverlayLE(t *testing.T) {
	rng := par.NewRNG(5)
	g := graph.RandomConnected(60, 150, 5, rng)
	res := Skeleton(g, rng, SkeletonOptions{})
	overlay := ExplicitOverlay(g, res.Spanner, res.StretchBound)
	lists, _ := frt.LEListsOnGraphBatch(overlay, []*frt.Order{res.Order}, nil)
	want := lists[0]
	mod := semiring.DistMapModule{}
	for v := 0; v < g.N(); v++ {
		if !mod.Equal(res.Lists[v], want[v]) {
			t.Fatalf("node %d: distributed %v ≠ overlay %v", v, res.Lists[v], want[v])
		}
	}
}

// TestSkeletonBeatsKhanOnHighSPD is experiment E9 in miniature: on a graph
// with hop diameter 2 but SPD ≈ n (starPath), the skeleton algorithm needs
// fewer simulated rounds than per-hop iteration.
func TestSkeletonBeatsKhanOnHighSPD(t *testing.T) {
	if testing.Short() {
		t.Skip("slow test: skipped with -short")
	}
	g := starPath(800)
	khan := Khan(g, par.NewRNG(6))
	skel := Skeleton(g, par.NewRNG(7), SkeletonOptions{Ell: 150, C: 1.5, SpannerK: 3})
	if skel.Rounds >= khan.Rounds {
		t.Fatalf("skeleton (%d rounds) did not beat Khan (%d rounds) on starPath", skel.Rounds, khan.Rounds)
	}
}

func TestKhanBeatsSkeletonOnLowSPD(t *testing.T) {
	if testing.Short() {
		t.Skip("slow test: skipped with -short")
	}
	// On a dense low-SPD graph Khan's O(SPD·log n) rounds beat the
	// skeleton's Õ(√n) setup cost.
	rng := par.NewRNG(8)
	g := graph.RandomConnected(300, 8000, 3, rng)
	khan := Khan(g, par.NewRNG(9))
	skel := Skeleton(g, par.NewRNG(10), SkeletonOptions{})
	if khan.Rounds >= skel.Rounds {
		t.Fatalf("Khan (%d rounds) did not beat skeleton (%d rounds) on low-SPD graph", khan.Rounds, skel.Rounds)
	}
}

func TestBestOfBothPicksMinimum(t *testing.T) {
	g := graph.Lollipop(15, 300)
	best := BestOfBoth(g, par.NewRNG(11))
	// Replicate BestOfBoth's internal RNG splits to reproduce both runs.
	r := par.NewRNG(11)
	khan := Khan(g, r.Split())
	skel := Skeleton(g, r.Split(), SkeletonOptions{})
	min := khan.Rounds
	if skel.Rounds < min {
		min = skel.Rounds
	}
	if best.Rounds != min {
		t.Fatalf("BestOfBoth returned %d rounds, min of (%d, %d) is %d",
			best.Rounds, khan.Rounds, skel.Rounds, min)
	}
}

func TestSkeletonStretchBound(t *testing.T) {
	rng := par.NewRNG(13)
	g := graph.RandomConnected(50, 120, 4, rng)
	for _, k := range []int{2, 3} {
		res := Skeleton(g, rng, SkeletonOptions{SpannerK: k})
		if res.StretchBound != float64(2*k-1) {
			t.Fatalf("k=%d: stretch bound %v", k, res.StretchBound)
		}
		// The overlay's metric must approximate G's within the bound.
		overlay := ExplicitOverlay(g, res.Spanner, res.StretchBound)
		eg := graph.APSPDijkstra(g)
		eh := graph.APSPDijkstra(overlay)
		for v := 0; v < g.N(); v++ {
			for w := v + 1; w < g.N(); w++ {
				if eh.At(v, w) < eg.At(v, w)-1e-9 {
					t.Fatalf("overlay shortened (%d,%d)", v, w)
				}
				if eh.At(v, w) > res.StretchBound*eg.At(v, w)+1e-9 {
					t.Fatalf("overlay stretch at (%d,%d): %v > %v×%v",
						v, w, eh.At(v, w), res.StretchBound, eg.At(v, w))
				}
			}
		}
	}
}

// sortedSkeletonRanks returns the sorted ranks of the given nodes.
func sortedSkeletonRanks(order *frt.Order, nodes []graph.Node) []uint64 {
	out := make([]uint64, len(nodes))
	for i, v := range nodes {
		out[i] = order.Rank[v]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
