package frt

import (
	"math"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// mapEdges rebuilds g with every edge {u, v, w} replaced by
// {node(u), node(v), weight(w)}.
func mapEdges(g *graph.Graph, node func(graph.Node) graph.Node, weight func(float64) float64) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.Add(node(e.U), node(e.V), weight(e.Weight))
	}
	return b.Freeze()
}

func sameNode(v graph.Node) graph.Node { return v }

// directTree is the direct pipeline: exact LE lists on g, then BuildTree.
func directTree(t *testing.T, g *graph.Graph, order *Order, beta float64) *Tree {
	t.Helper()
	lists, _ := leListsOnGraph(g, order, nil)
	tree, err := BuildTree(lists, order, beta)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// embedderTree draws one tree of g through a fresh Embedder seeded with seed.
func embedderTree(t *testing.T, g *graph.Graph, seed uint64) *Tree {
	t.Helper()
	emb, err := NewEmbedder(g, Options{RNG: par.NewRNG(seed)})
	if err != nil {
		t.Fatal(err)
	}
	e, err := emb.Sample()
	if err != nil {
		t.Fatal(err)
	}
	return e.Tree
}

// checkScaled requires dist_scaled(u, v) == 2^j · dist(u, v) bitwise for
// every pair.
func checkScaled(t *testing.T, what string, seed uint64, j int, tree, scaled *Tree) {
	t.Helper()
	n := len(tree.Leaf)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d, ds := tree.Dist(graph.Node(u), graph.Node(v)), scaled.Dist(graph.Node(u), graph.Node(v))
			if want := math.Ldexp(d, j); ds != want {
				t.Fatalf("%s seed %d, j=%d: dist(%d,%d) = %v scaled, want 2^j·%v = %v", what, seed, j, u, v, ds, d, want)
			}
		}
	}
}

// TestTreesScaleWithWeights is a metamorphic pin: multiplying every edge
// weight by 2^j is exact in floating point, and the FRT levels r_i = β·2^i
// shift by j with it, so every tree distance scales by exactly 2^j — for
// the direct pipeline (same order and β) and for the Embedder at a fixed
// seed (its random draws do not depend on the weights).
func TestTreesScaleWithWeights(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := graph.RandomConnected(80, 240, 8, par.NewRNG(seed))
		rng := par.NewRNG(seed + 50)
		order, beta := NewOrder(g.N(), rng), RandomBeta(rng)
		direct := directTree(t, g, order, beta)
		embedded := embedderTree(t, g, seed)
		for _, j := range []int{-7, 3, 20} {
			gs := mapEdges(g, sameNode, func(w float64) float64 { return math.Ldexp(w, j) })
			checkScaled(t, "direct", seed, j, direct, directTree(t, gs, order, beta))
			checkScaled(t, "embedder", seed, j, embedded, embedderTree(t, gs, seed))
		}
	}
}

// TestTreesInvariantUnderRelabeling is a metamorphic pin on the direct
// pipeline: renaming the nodes by a permutation π while carrying their
// ranks (Rank'[π(v)] = Rank[v]) and keeping β yields an isomorphic tree,
// so dist_T'(π(u), π(v)) == dist_T(u, v) bitwise. The Embedder is not
// pinned this way: its hop set and level samples are drawn per node id.
func TestTreesInvariantUnderRelabeling(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := graph.RandomConnected(80, 240, 8, par.NewRNG(seed))
		rng := par.NewRNG(seed + 50)
		order, beta := NewOrder(g.N(), rng), RandomBeta(rng)
		pi := rng.Perm(g.N())
		perm := func(v graph.Node) graph.Node { return graph.Node(pi[v]) }
		relabeled := &Order{Rank: make([]uint64, g.N())}
		for v, r := range order.Rank {
			relabeled.Rank[pi[v]] = r
		}
		tree := directTree(t, g, order, beta)
		moved := directTree(t, mapEdges(g, perm, func(w float64) float64 { return w }), relabeled, beta)
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if d, dm := tree.Dist(graph.Node(u), graph.Node(v)), moved.Dist(perm(graph.Node(u)), perm(graph.Node(v))); d != dm {
					t.Fatalf("seed %d: dist(%d,%d) = %v, relabeled dist(%d,%d) = %v", seed, u, v, d, pi[u], pi[v], dm)
				}
			}
		}
	}
}
