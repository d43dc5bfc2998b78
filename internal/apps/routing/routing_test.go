package routing

import (
	"math"
	"sort"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

func TestRouteValidOnRandomGraph(t *testing.T) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(60, 150, 6, rng)
	rt, err := Build(g, Options{RNG: rng, Trees: 3})
	if err != nil {
		t.Fatal(err)
	}
	pairRNG := par.NewRNG(2)
	for i := 0; i < 50; i++ {
		u := graph.Node(pairRNG.Intn(g.N()))
		v := graph.Node(pairRNG.Intn(g.N()))
		r, err := rt.Route(u, v)
		if err != nil {
			t.Fatalf("route (%d,%d): %v", u, v, err)
		}
		if err := Validate(g, u, v, r); err != nil {
			t.Fatalf("route (%d,%d): %v", u, v, err)
		}
	}
}

func TestRouteSelfPair(t *testing.T) {
	rng := par.NewRNG(3)
	g := graph.PathGraph(8, 1)
	rt, err := Build(g, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Route(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Path) != 1 || r.Path[0] != 5 || r.Length != 0 {
		t.Fatalf("self route %+v", r)
	}
	if err := Validate(g, 5, 5, r); err != nil {
		t.Fatal(err)
	}
}

func TestRouteRejectsOutOfRange(t *testing.T) {
	rng := par.NewRNG(4)
	g := graph.PathGraph(5, 1)
	rt, err := Build(g, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Route(0, 9); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := rt.Route(-1, 2); err == nil {
		t.Fatal("negative source accepted")
	}
}

func TestRouteBatchMatchesRoute(t *testing.T) {
	rng := par.NewRNG(5)
	g := graph.GridGraph(6, 6, 3, rng)
	rt, err := Build(g, Options{RNG: rng, Trees: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []frt.Pair{{U: 0, V: 35}, {U: 7, V: 7}, {U: 12, V: 30}}
	rs, err := rt.RouteBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		single, err := rt.Route(p.U, p.V)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i].Length != single.Length || rs[i].Tree != single.Tree {
			t.Fatalf("pair %d: batch %+v vs single %+v", i, rs[i], single)
		}
	}
	if _, err := rt.RouteBatch([]frt.Pair{{U: 0, V: 99}}); err == nil {
		t.Fatal("batch with out-of-range pair accepted")
	}
}

func TestRouteInjectedEnsembleSharesTrees(t *testing.T) {
	rng := par.NewRNG(6)
	g := graph.RandomConnected(40, 100, 5, rng)
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := emb.SampleEnsemble(4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Build(g, Options{Ensemble: ens})
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumTrees() != 4 {
		t.Fatalf("built %d trees, want 4", rt.NumTrees())
	}
	// The best-tree certificate must equal the ensemble's Min estimate:
	// Route picks argmin over exactly the injected trees.
	idx, err := ens.Index()
	if err != nil {
		t.Fatal(err)
	}
	pairRNG := par.NewRNG(7)
	for i := 0; i < 30; i++ {
		u := graph.Node(pairRNG.Intn(g.N()))
		v := graph.Node(pairRNG.Intn(g.N()))
		if u == v {
			continue
		}
		r, err := rt.Route(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if min := idx.Min(u, v); r.TreeDist != min {
			t.Fatalf("pair (%d,%d): certificate %v, ensemble Min %v", u, v, r.TreeDist, min)
		}
	}
}

// TestRouteTreeChoiceMatchesWalk pins Route's tree choice: per pair it must
// return the tree and the TreeDist bits of the strict-< argmin (first tree
// on ties) of Tree.Dist over the visited trees, on the full ensemble and on
// a FirstTree/Trees shard.
// TestRouteCertificateAllPairs validates every pair of a unit-weight 7×7
// grid routed over a K=5 Embedder ensemble. Some of these routes are longer
// than their TreeDist (a center hop may cost 3β2^i against a 2β2^i tree
// edge), so the test also pins that the 1.5 factor is needed, not slack.
func TestRouteCertificateAllPairs(t *testing.T) {
	rng := par.NewRNG(8)
	g := graph.GridGraph(7, 7, 1, rng)
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := emb.SampleEnsemble(5)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Build(g, Options{Ensemble: ens})
	if err != nil {
		t.Fatal(err)
	}
	pairs, over := 0, 0
	for u := graph.Node(0); int(u) < g.N(); u++ {
		for v := u + 1; int(v) < g.N(); v++ {
			r, err := rt.Route(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(g, u, v, r); err != nil {
				t.Fatalf("pair (%d,%d): %v", u, v, err)
			}
			pairs++
			if r.Length > r.TreeDist {
				over++
			}
		}
	}
	if pairs != 1176 || over == 0 {
		t.Fatalf("%d pairs, %d longer than TreeDist; want 1176 pairs and some longer", pairs, over)
	}
	t.Logf("%d of %d routes longer than TreeDist", over, pairs)
}

func TestRouteTreeChoiceMatchesWalk(t *testing.T) {
	rng := par.NewRNG(8)
	g := graph.GridGraph(7, 7, 1, rng) // unit weights: tied tree distances
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := emb.SampleEnsemble(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []struct{ first, trees int }{{0, 0}, {1, 3}} {
		rt, err := Build(g, Options{Ensemble: ens, FirstTree: span.first, Trees: span.trees})
		if err != nil {
			t.Fatal(err)
		}
		visit := ens.Trees[span.first:]
		if span.trees > 0 {
			visit = visit[:span.trees]
		}
		for u := graph.Node(0); int(u) < g.N(); u += 3 {
			for v := graph.Node(1); int(v) < g.N(); v += 4 {
				if u == v {
					continue
				}
				best, bestDist := 0, visit[0].Dist(u, v)
				for i, tr := range visit[1:] {
					if d := tr.Dist(u, v); d < bestDist {
						best, bestDist = i+1, d
					}
				}
				r, err := rt.Route(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if r.Tree != best || math.Float64bits(r.TreeDist) != math.Float64bits(bestDist) {
					t.Fatalf("span %+v pair (%d,%d): tree %d dist %v, walk argmin tree %d dist %v",
						span, u, v, r.Tree, r.TreeDist, best, bestDist)
				}
				if err := Validate(g, u, v, r); err != nil {
					t.Fatalf("span %+v pair (%d,%d): %v", span, u, v, err)
				}
			}
		}
	}
	bad := *ens.Trees[0]
	bad.Leaf = append([]int32(nil), bad.Leaf...)
	bad.Leaf[3] = bad.Parent[bad.Leaf[3]] // one level short of the others
	if _, err := Build(g, Options{Ensemble: &frt.Ensemble{Trees: []*frt.Tree{&bad}}}); err == nil {
		t.Fatal("Build accepted a structurally invalid tree")
	}
	for name, tr := range layoutBreakers(ens.Trees[0]) {
		if _, err := Build(g, Options{Ensemble: &frt.Ensemble{Trees: []*frt.Tree{tr}}}); err == nil {
			t.Fatalf("Build accepted a %s tree", name)
		}
	}
}

// layoutBreakers returns sound copies of tr that break frt.Tree's layout
// contract: one with node 3's leaf edge reweighted, and one with the
// non-root node ids reversed, so that Level increases with the id.
func layoutBreakers(tr *frt.Tree) map[string]*frt.Tree {
	skewed := *tr
	skewed.EdgeWeight = append([]float64(nil), tr.EdgeWeight...)
	skewed.EdgeWeight[tr.Leaf[3]] /= 2
	nn := tr.NumNodes()
	id := func(u int32) int32 {
		if u <= 0 {
			return u
		}
		return int32(nn) - u
	}
	permuted := frt.Tree{
		Parent:     make([]int32, nn),
		EdgeWeight: make([]float64, nn),
		Center:     make([]graph.Node, nn),
		Level:      make([]int32, nn),
		Leaf:       make([]int32, len(tr.Leaf)),
		Beta:       tr.Beta,
	}
	for u := int32(0); u < int32(nn); u++ {
		permuted.Parent[id(u)] = id(tr.Parent[u])
		permuted.EdgeWeight[id(u)], permuted.Center[id(u)], permuted.Level[id(u)] = tr.EdgeWeight[u], tr.Center[u], tr.Level[u]
	}
	for v, leaf := range tr.Leaf {
		permuted.Leaf[v] = id(leaf)
	}
	return map[string]*frt.Tree{"non-uniform": &skewed, "permuted": &permuted}
}

// routingStretchBoundC pins the median routed-path stretch at
// c·log₂ n, mirroring the frt stretch_stat suite: observed medians on the
// fixed seeds are ~1.5–2.5 (log₂ 128 = 7), so c = 1 gives ample headroom
// while an O(log n)-breaking regression fails immediately.
const routingStretchBoundC = 1.0

func TestStatisticalRoutingStretch(t *testing.T) {
	rng := par.NewRNG(301)
	g := graph.RandomConnected(128, 512, 8, rng)
	rt, err := Build(g, Options{RNG: rng, Trees: 4})
	if err != nil {
		t.Fatal(err)
	}
	pairRNG := par.NewRNG(302)
	const pairs = 200
	type q struct {
		u, v graph.Node
	}
	qs := make([]q, 0, pairs)
	for len(qs) < pairs {
		u, v := graph.Node(pairRNG.Intn(g.N())), graph.Node(pairRNG.Intn(g.N()))
		if u != v {
			qs = append(qs, q{u, v})
		}
	}
	bySource := map[graph.Node][]int{}
	for i, p := range qs {
		bySource[p.u] = append(bySource[p.u], i)
	}
	exact := make([]float64, len(qs))
	for src, is := range bySource {
		res := graph.Dijkstra(g, src)
		for _, i := range is {
			exact[i] = res.Dist[qs[i].v]
		}
	}
	stretches := make([]float64, len(qs))
	for i, p := range qs {
		r, err := rt.Route(p.u, p.v)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, p.u, p.v, r); err != nil {
			t.Fatal(err)
		}
		if r.Length < exact[i]-1e-9 {
			t.Fatalf("pair (%d,%d): routed length %v beats Dijkstra %v", p.u, p.v, r.Length, exact[i])
		}
		stretches[i] = r.Length / exact[i]
	}
	sort.Float64s(stretches)
	median := stretches[len(stretches)/2]
	bound := routingStretchBoundC * math.Log2(float64(g.N()))
	t.Logf("n=%d pairs=%d median routed stretch %.2f (pinned bound %.2f), p90 %.2f, max %.2f",
		g.N(), len(qs), median, bound, stretches[len(stretches)*9/10], stretches[len(stretches)-1])
	if median > bound {
		t.Fatalf("median routed stretch %.2f exceeds pinned %.1f·log₂(%d) = %.2f",
			median, routingStretchBoundC, g.N(), bound)
	}
}

// TestValidateRejectsBadCertificates: Validate is the routing test oracle,
// so its own rejection branches need pinning — a wrong endpoint, a fake
// edge, a cooked length, and a length above the tree-distance certificate
// must all fail.
func TestValidateRejectsBadCertificates(t *testing.T) {
	g := graph.RandomConnected(24, 60, 8, par.NewRNG(51))
	rt, err := Build(g, Options{RNG: par.NewRNG(52), Trees: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Route(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, 0, 9, r); err != nil {
		t.Fatalf("genuine route rejected: %v", err)
	}
	if err := Validate(g, 1, 9, r); err == nil {
		t.Fatal("wrong start endpoint accepted")
	}
	fake := &RouteResult{Path: []graph.Node{0, 9}, Length: 1}
	if _, ok := g.HasEdge(0, 9); !ok {
		if err := Validate(g, 0, 9, fake); err == nil {
			t.Fatal("non-edge hop accepted")
		}
	}
	cooked := &RouteResult{Path: r.Path, Length: r.Length / 2, Tree: r.Tree, TreeDist: r.TreeDist}
	if err := Validate(g, 0, 9, cooked); err == nil {
		t.Fatal("cooked length accepted")
	}
	short := &RouteResult{Path: r.Path, Length: r.Length, Tree: r.Tree, TreeDist: r.Length / 2}
	if err := Validate(g, 0, 9, short); err == nil {
		t.Fatal("length above the tree-distance certificate accepted")
	}
}

// TestRouteBatchAlwaysValidates is the property that Validate accepts every
// route RouteBatch returns: over random weighted graphs, heavy-tailed
// ChungLu graphs and unit and weighted grids, several seeds and ensemble
// sizes, random pairs including self pairs.
func TestRouteBatchAlwaysValidates(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	gens := []struct {
		name string
		gen  func(rng *par.RNG) *graph.Graph
	}{
		{"random", func(rng *par.RNG) *graph.Graph { return graph.RandomConnected(72, 200, 9, rng) }},
		{"chunglu", func(rng *par.RNG) *graph.Graph { return graph.ChungLu(72, 4, 2.5, 20, rng) }},
		{"grid", func(rng *par.RNG) *graph.Graph { return graph.GridGraph(8, 9, 1, rng) }},
		{"wgrid", func(rng *par.RNG) *graph.Graph { return graph.GridGraph(8, 9, 6, rng) }},
	}
	routes := 0
	for _, gen := range gens {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			rng := par.NewRNG(900 + seed)
			g := gen.gen(rng)
			for _, k := range []int{1, 3, 6} {
				rt, err := Build(g, Options{RNG: par.NewRNG(seed), Trees: k})
				if err != nil {
					t.Fatal(err)
				}
				pairs := make([]frt.Pair, 150)
				for i := range pairs {
					pairs[i] = frt.Pair{U: graph.Node(rng.Intn(g.N())), V: graph.Node(rng.Intn(g.N()))}
				}
				pairs[0].V = pairs[0].U
				res, err := rt.RouteBatch(pairs)
				if err != nil {
					t.Fatalf("%s seed %d K=%d: %v", gen.name, seed, k, err)
				}
				for i, r := range res {
					if err := Validate(g, pairs[i].U, pairs[i].V, r); err != nil {
						t.Fatalf("%s seed %d K=%d pair (%d,%d): %v", gen.name, seed, k, pairs[i].U, pairs[i].V, err)
					}
					routes++
				}
			}
		}
	}
	t.Logf("%d routes validated", routes)
}
