package frt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func sampleTreeForIO(t *testing.T, seed uint64, n, m int) (*graph.Graph, *Tree) {
	t.Helper()
	rng := par.NewRNG(seed)
	g := graph.RandomConnected(n, m, 6, rng)
	emb, err := SampleOnGraph(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, emb.Tree
}

func TestTreeWriteReadRoundTrip(t *testing.T) {
	_, tree := sampleTreeForIO(t, 1, 30, 70)
	got, _ := snapshotRoundTrip(t, &Ensemble{Trees: []*Tree{tree}}, SnapshotMeta{})
	if !reflect.DeepEqual(got.Trees[0], tree) {
		t.Fatal("round trip changed the tree")
	}
}

// treeGraph converts a tree into an explicit weighted graph on the tree's
// own node ids (leaves are tree nodes, not graph nodes) and maps each graph
// node to its leaf: the Dijkstra cross-check of Tree.Dist.
func treeGraph(tr *Tree) (*graph.Graph, []graph.Node) {
	b := graph.NewBuilder(tr.NumNodes())
	for u, p := range tr.Parent {
		if p != -1 {
			b.Add(graph.Node(u), graph.Node(p), tr.EdgeWeight[u])
		}
	}
	leaves := make([]graph.Node, len(tr.Leaf))
	for v, leaf := range tr.Leaf {
		leaves[v] = graph.Node(leaf)
	}
	return b.Freeze(), leaves
}

func TestToGraphPreservesTreeMetric(t *testing.T) {
	g, tree := sampleTreeForIO(t, 2, 25, 60)
	tg, leaves := treeGraph(tree)
	if !tg.Connected() {
		t.Fatal("tree graph disconnected")
	}
	if tg.M() != tree.NumNodes()-1 {
		t.Fatalf("tree graph has %d edges, want %d", tg.M(), tree.NumNodes()-1)
	}
	for u := 0; u < g.N(); u += 3 {
		res := graph.Dijkstra(tg, leaves[u])
		for v := 0; v < g.N(); v += 2 {
			want := tree.Dist(graph.Node(u), graph.Node(v))
			if got := res.Dist[leaves[v]]; got != want {
				t.Fatalf("(%d,%d): tree graph %v vs Tree.Dist %v", u, v, got, want)
			}
		}
	}
}

// quickTreeSeed drives random tree round-trips via testing/quick.
type quickTreeSeed struct{ Seed uint64 }

// Generate implements quick.Generator.
func (quickTreeSeed) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickTreeSeed{Seed: r.Uint64()})
}

func TestQuickTreeRoundTripAndDominance(t *testing.T) {
	f := func(s quickTreeSeed) bool {
		rng := par.NewRNG(s.Seed)
		n := 8 + int(s.Seed%16)
		g := graph.RandomConnected(n, 2*n, 6, rng)
		emb, err := SampleOnGraph(g, rng, nil)
		if err != nil {
			return false
		}
		if emb.Tree.Validate() != nil {
			return false
		}
		// Serialise and re-read.
		read, _ := snapshotRoundTrip(t, &Ensemble{Trees: []*Tree{emb.Tree}}, SnapshotMeta{})
		got := read.Trees[0]
		// Dominance and symmetry on all pairs of the re-read tree.
		exact := graph.APSPDijkstra(g)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				d := got.Dist(graph.Node(u), graph.Node(v))
				if d < exact.At(u, v)-1e-9 {
					return false
				}
				if d != got.Dist(graph.Node(v), graph.Node(u)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTreeDeepEqualRoundTrip is the exact-round-trip property: for
// randomly sampled trees (drawn through the shared-pipeline Embedder),
// a snapshot write → read reproduces the Tree structs field-for-field.
func TestQuickTreeDeepEqualRoundTrip(t *testing.T) {
	f := func(s quickTreeSeed) bool {
		rng := par.NewRNG(s.Seed)
		n := 8 + int(s.Seed%12)
		g := graph.RandomConnected(n, 3*n, 6, rng)
		e, err := NewEmbedder(g, Options{RNG: rng})
		if err != nil {
			return false
		}
		ens, err := e.SampleEnsemble(2)
		if err != nil {
			return false
		}
		got, _ := snapshotRoundTrip(t, ens, SnapshotMeta{})
		return reflect.DeepEqual(got.Trees, ens.Trees)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLEFilterProjection(t *testing.T) {
	mod := semiring.DistMapModule{}
	f := func(seed uint64, raw []uint8) bool {
		rng := par.NewRNG(seed)
		o := NewOrder(16, rng)
		filter := o.Filter()
		var x, y semiring.DistMap
		for i, b := range raw {
			node, dist := graph.Node(int32(i%16)), float64(b)
			if i%2 == 0 {
				x = x.Append(node, dist)
			} else {
				y = y.Append(node, dist)
			}
		}
		xs, ys := semiring.Normalize(x), semiring.Normalize(y)
		rx := filter(xs)
		if !mod.Equal(filter(rx), rx) {
			return false
		}
		// Congruence in the single-sided form of Lemma 7.5.
		lhs := filter(mod.Add(xs, ys))
		rhs := filter(mod.Add(filter(xs), filter(ys)))
		return mod.Equal(lhs, rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
