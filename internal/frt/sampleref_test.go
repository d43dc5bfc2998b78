package frt

// Differential reference for the rank-keyed samplers: SampleExact and
// SampleOnGraph go from rank-keyed LE lists straight to the tree. The
// reference is the node-keyed path they replaced — a full distance row, or
// a node-keyed fixpoint, filtered by Order.Filter and assembled by
// BuildTree — replayed on the same RNG draws.

import (
	"bytes"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// samplerRefGraphs are the graph families of the sampler differential
// test; the unit-weight ones have many equidistant nodes, so a dominance
// rule that kept ties would show.
func samplerRefGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomConnected(60, 150, 8, par.NewRNG(61))},
		{"grid", graph.GridGraph(7, 8, 5, par.NewRNG(62))},
		{"path", graph.PathGraph(40, 1)},
		{"unit-ties", graph.RandomConnected(64, 160, 1, par.NewRNG(63))},
	}
}

// treeText is WriteTree's output for tr.
func treeText(tb testing.TB, tr *Tree) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteTree(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// checkSamplerRef compares one sampler draw with the reference: the same
// tree bytes and iteration count, and rank-keyed lists that relabel to the
// reference's node-keyed ones.
func checkSamplerRef(t *testing.T, label string, emb *Embedding, ranked, want []semiring.DistMap, order *Order, beta float64, iters int) {
	t.Helper()
	tree, err := BuildTree(want, order, beta)
	if err != nil {
		t.Fatalf("%s: reference BuildTree: %v", label, err)
	}
	if got, ref := treeText(t, emb.Tree), treeText(t, tree); got != ref {
		t.Fatalf("%s: tree differs from the node-keyed reference:\n%s\nwant\n%s", label, got, ref)
	}
	if emb.Iterations != iters {
		t.Fatalf("%s: %d iterations, reference %d", label, emb.Iterations, iters)
	}
	rk := order.MustKeys(len(want))
	mod := semiring.DistMapModule{}
	for v, l := range ranked {
		if got := l.Relabel(rk.Node); !mod.Equal(got, want[v]) {
			t.Fatalf("%s node %d: rank-keyed list %v relabels to %v, reference %v", label, v, l, got, want[v])
		}
	}
}

func TestSamplersMatchNodeKeyedReference(t *testing.T) {
	mod := semiring.DistMapModule{}
	for _, tc := range samplerRefGraphs() {
		g, n := tc.g, tc.g.N()
		m := graph.APSPDijkstra(g)
		for seed := uint64(1); seed <= 3; seed++ {
			emb, err := SampleExact(g, par.NewRNG(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := par.NewRNG(seed)
			order := NewOrder(n, rng)
			beta := RandomBeta(rng)
			filter := order.Filter()
			want := make([]semiring.DistMap, n)
			for v := range want {
				full := semiring.NewDistMap(n)
				for w := 0; w < n; w++ {
					if d := m.At(v, w); !semiring.IsInf(d) {
						full = full.Append(graph.Node(w), d)
					}
				}
				want[v] = filter(full)
			}
			ranked := exactLELists(m, order.MustKeys(n), nil)
			checkSamplerRef(t, tc.name+"/exact", emb, ranked, want, order, beta, 1)

			emb, err = SampleOnGraph(g, par.NewRNG(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			rng = par.NewRNG(seed)
			order = NewOrder(n, rng)
			beta = RandomBeta(rng)
			ref := &mbf.Runner[float64, semiring.DistMap]{
				Graph:  g,
				Module: mod,
				Filter: order.Filter(),
				Weight: mbf.MinPlusWeight,
			}
			want, iters := ref.RunToFixpoint(InitialStates(n), n)
			lists, _ := leListsRanked(g, []RankKeys{order.MustKeys(n)}, nil)
			checkSamplerRef(t, tc.name+"/on-graph", emb, lists[0], want, order, beta, iters)
		}
	}
}
