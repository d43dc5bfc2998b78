package steiner

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// referenceSolveOnTree is the per-tree expansion Solve replaced, kept as the
// differential reference: each used hop is expanded with dijkstraWalk — no
// mbf routing table involved, so a wrong next-hop rule in mbf cannot hide in
// both sides.
func referenceSolveOnTree(g *graph.Graph, tree *frt.Tree, terminals []graph.Node) (*Result, error) {
	termCount := make([]int, tree.NumNodes())
	for _, t := range terminals {
		for u := tree.Leaf[t]; u != -1; u = tree.Parent[u] {
			termCount[u]++
		}
	}
	type hop struct{ from, to graph.Node }
	var hops []hop
	for child := int32(0); child < int32(tree.NumNodes()); child++ {
		p := tree.Parent[child]
		if p == -1 || termCount[child] == 0 || termCount[child] == len(terminals) || tree.Center[child] == tree.Center[p] {
			continue
		}
		hops = append(hops, hop{from: tree.Center[child], to: tree.Center[p]})
	}
	sub := graph.NewBuilder(g.N())
	dist := map[graph.Node][]float64{}
	for _, h := range hops {
		path := dijkstraWalk(g, dist, h.from, h.to)
		if path == nil {
			return nil, fmt.Errorf("centers %d, %d disconnected", h.from, h.to)
		}
		for i := 1; i < len(path); i++ {
			w, _ := g.HasEdge(path[i-1], path[i])
			sub.Add(path[i-1], path[i], w)
		}
	}
	return prune(g, sub.Freeze(), terminals), nil
}

// dijkstraWalk is the reference expansion of one hop from → to, derived
// independently of the mbf routing tables under test: exact distances to
// `to` from one graph.Dijkstra per target (memoised in dist), and at every
// node the smallest neighbour w with d(w, to) + ω(v, w) == d(v, to), bit for
// bit. Returns nil when from cannot reach to.
func dijkstraWalk(g *graph.Graph, dist map[graph.Node][]float64, from, to graph.Node) []graph.Node {
	d, ok := dist[to]
	if !ok {
		d = graph.Dijkstra(g, to).Dist
		dist[to] = d
	}
	path := []graph.Node{from}
	for v := from; v != to; {
		next := graph.Node(-1)
		for _, a := range g.Neighbors(v) { // sorted by target: the first match is the smallest
			if d[a.To]+a.Weight == d[v] {
				next = a.To
				break
			}
		}
		if next < 0 || len(path) > g.N() {
			return nil
		}
		v = next
		path = append(path, v)
	}
	return path
}

// TestSolveMatchesPerTreeReference pins that Solve's one shared fixpoint
// (towards the union of every visited tree's used parent centers) returns
// the same Steiner tree, bit for bit, as the per-tree fixpoint loop.
func TestSolveMatchesPerTreeReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":  graph.RandomConnected(96, 300, 8, par.NewRNG(201)),
		"grid":    graph.GridGraph(9, 9, 1, par.NewRNG(202)),
		"chunglu": graph.ChungLu(120, 4, 2.5, 6, par.NewRNG(203)),
	}
	for name, g := range graphs {
		terms := make([]graph.Node, 0, 8)
		for i := 0; i < 8; i++ {
			terms = append(terms, graph.Node(i*(g.N()-1)/7))
		}
		for _, k := range []int{1, 4} {
			emb, err := frt.NewEmbedder(g, frt.Options{RNG: par.NewRNG(uint64(11 * k))})
			if err != nil {
				t.Fatal(err)
			}
			ens, err := emb.SampleEnsemble(k)
			if err != nil {
				t.Fatal(err)
			}
			spans := []Options{{}}
			if k > 1 {
				spans = append(spans, Options{FirstTree: 1, Trees: 2})
			}
			for _, span := range spans {
				label := fmt.Sprintf("%s K=%d trees [%d,+%d)", name, k, span.FirstTree, span.Trees)
				visit, err := span.Visit(ens)
				if err != nil {
					t.Fatal(err)
				}
				var want *Result
				for _, tree := range visit {
					r, err := referenceSolveOnTree(g, tree, terms)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil || r.Weight < want.Weight {
						want = r
					}
				}
				opts := span
				opts.Ensemble = ens
				got, err := Solve(g, terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
					t.Fatalf("%s: weight %v, want %v", label, got.Weight, want.Weight)
				}
				if !slices.Equal(got.Tree.Edges(), want.Tree.Edges()) {
					t.Fatalf("%s: Steiner edges differ", label)
				}
			}
		}
	}
}
