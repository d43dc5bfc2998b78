package mbf

import (
	"sort"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func testGraph() *graph.Graph {
	// A small graph with interesting structure: a square with a diagonal
	// and a pendant.
	return graph.NewBuilder(5).
		Add(0, 1, 1).Add(1, 2, 2).Add(2, 3, 1).
		Add(3, 0, 4).Add(0, 2, 2.5).Add(3, 4, 1).Freeze()
}

func randomGraph(seed uint64, n, m int) *graph.Graph {
	return graph.RandomConnected(n, m, 10, par.NewRNG(seed))
}

func TestSSSPMatchesBellmanFordPerHop(t *testing.T) {
	g := randomGraph(1, 40, 100)
	for _, h := range []int{0, 1, 2, 3, 5, 39} {
		got := SSSP(g, 7, h, nil)
		want := graph.BellmanFord(g, 7, h)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("h=%d node %d: %v vs %v", h, v, got[v], want[v])
			}
		}
	}
}

func TestSSSPMatchesDijkstraAtFixpoint(t *testing.T) {
	g := randomGraph(2, 50, 120)
	got := SSSP(g, 0, g.N(), nil)
	want := graph.Dijkstra(g, 0).Dist
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: %v vs %v", v, got[v], want[v])
		}
	}
}

func TestAPSPMatchesDijkstra(t *testing.T) {
	g := randomGraph(3, 30, 70)
	res := APSP(g, g.N(), nil)
	exact := graph.APSPDijkstra(g)
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if got := res[v].Get(graph.Node(w)); got != exact.At(v, w) {
				t.Fatalf("APSP (%d,%d): %v vs %v", v, w, got, exact.At(v, w))
			}
		}
	}
}

func TestSourceDetectionBruteForce(t *testing.T) {
	g := testGraph()
	sources := []graph.Node{0, 3, 4}
	isSource := func(v graph.Node) bool { return v == 0 || v == 3 || v == 4 }
	const h, k = 5, 2
	maxD := 3.5
	got := SourceDetection(g, isSource, h, maxD, k, nil)

	for v := 0; v < g.N(); v++ {
		// Brute force: h-hop distances to each source, keep those ≤ maxD,
		// sort by (dist, id), truncate to k.
		type cand struct {
			s graph.Node
			d float64
		}
		var cands []cand
		for _, s := range sources {
			d := graph.BellmanFord(g, s, h)[v]
			if d <= maxD {
				cands = append(cands, cand{s, d})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].s < cands[j].s
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		if got[v].Len() != len(cands) {
			t.Fatalf("node %d: got %v, want %v", v, got[v], cands)
		}
		for _, c := range cands {
			if got[v].Get(c.s) != c.d {
				t.Fatalf("node %d source %d: got %v, want %v", v, c.s, got[v].Get(c.s), c.d)
			}
		}
	}
}

func TestSourceDetectionUsesHopDistanceCorrectly(t *testing.T) {
	// Source detection with a distance bound: the bound applies to the
	// h-hop distance. On a path 0—1—2 with h=1, node 2 must not see source
	// 0 at all.
	g := graph.PathGraph(3, 1)
	isSource := func(v graph.Node) bool { return v == 0 }
	got := SourceDetection(g, isSource, 1, semiring.Inf, 5, nil)
	if got[2].Len() != 0 {
		t.Fatalf("node 2 learned %v within 1 hop", got[2])
	}
	if got[1].Get(0) != 1 {
		t.Fatalf("node 1: %v", got[1])
	}
}

func TestKSSPReturnsKClosest(t *testing.T) {
	g := randomGraph(4, 25, 60)
	const k = 3
	res := KSSP(g, k, g.N(), nil)
	exact := graph.APSPDijkstra(g)
	for v := 0; v < g.N(); v++ {
		if res[v].Len() != k {
			t.Fatalf("node %d: %d entries, want %d", v, res[v].Len(), k)
		}
		// The k entries must be the k smallest exact distances with
		// (dist, id) tie-breaking.
		type cand struct {
			w graph.Node
			d float64
		}
		cands := make([]cand, g.N())
		for w := 0; w < g.N(); w++ {
			cands[w] = cand{graph.Node(w), exact.At(v, w)}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].w < cands[j].w
		})
		for _, c := range cands[:k] {
			if res[v].Get(c.w) != c.d {
				t.Fatalf("node %d: missing %d:%v in %v", v, c.w, c.d, res[v])
			}
		}
	}
}

func TestMSSP(t *testing.T) {
	g := randomGraph(5, 30, 60)
	sources := []graph.Node{2, 11, 17}
	// (S, h, ∞, |S|)-source detection (Example 3.6).
	res := SourceDetection(g, sourceSet(g.N(), sources), g.N(), semiring.Inf, 0, nil)
	for v := 0; v < g.N(); v++ {
		if res[v].Len() != len(sources) {
			t.Fatalf("node %d sees %d sources, want %d", v, res[v].Len(), len(sources))
		}
		for _, s := range sources {
			want := graph.Dijkstra(g, s).Dist[v]
			if got := res[v].Get(s); got != want {
				t.Fatalf("node %d source %d: %v vs %v", v, s, got, want)
			}
		}
	}
}

func TestForestFire(t *testing.T) {
	g := graph.PathGraph(8, 1)
	onFire := []graph.Node{0, 7}
	const d = 2.5
	got := ForestFire(g, onFire, d, nil)
	want := []float64{0, 1, 2, semiring.Inf, semiring.Inf, 2, 1, 0}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: %v, want %v", v, got[v], want[v])
		}
	}
}

// widestPathReference computes exact widest-path distances from source with
// a max-heap variant of Dijkstra, as ground truth for the max-min algebra.
func widestPathReference(g *graph.Graph, source graph.Node) []float64 {
	n := g.N()
	width := make([]float64, n)
	width[source] = semiring.Inf
	done := make([]bool, n)
	for {
		best, bi := -1.0, -1
		for v := 0; v < n; v++ {
			if !done[v] && width[v] > best {
				best, bi = width[v], v
			}
		}
		if bi == -1 || best == 0 {
			break
		}
		done[bi] = true
		for _, a := range g.Neighbors(graph.Node(bi)) {
			w := a.Weight
			if width[bi] < w {
				w = width[bi]
			}
			if w > width[a.To] {
				width[a.To] = w
			}
		}
	}
	return width
}

func TestSSWPMatchesReference(t *testing.T) {
	g := randomGraph(6, 40, 90)
	got := SSWP(g, 5, g.N(), nil)
	want := widestPathReference(g, 5)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: width %v vs %v", v, got[v], want[v])
		}
	}
}

func TestAPWPMatchesReference(t *testing.T) {
	g := randomGraph(7, 20, 45)
	res := APWP(g, g.N(), nil)
	for s := 0; s < g.N(); s++ {
		want := widestPathReference(g, graph.Node(s))
		for v := 0; v < g.N(); v++ {
			if got := res[v].Get(graph.Node(s)); got != want[v] {
				t.Fatalf("pair (%d,%d): width %v vs %v", s, v, got, want[v])
			}
		}
	}
}

func TestMSWPSubset(t *testing.T) {
	g := randomGraph(8, 20, 40)
	sources := []graph.Node{3, 9}
	res := MSWP(g, sources, g.N(), nil)
	for v := 0; v < g.N(); v++ {
		if len(res[v]) > len(sources) {
			t.Fatalf("node %d tracks %d sources", v, len(res[v]))
		}
	}
	want := widestPathReference(g, 3)
	for v := 0; v < g.N(); v++ {
		if got := res[v].Get(3); got != want[v] {
			t.Fatalf("node %d: %v vs %v", v, got, want[v])
		}
	}
}

func TestConnectivity(t *testing.T) {
	// Two components: {0,1,2} and {3,4}.
	g := graph.NewBuilder(5).Add(0, 1, 1).Add(1, 2, 1).Add(3, 4, 1).Freeze()
	res := Connectivity(g, 5, nil)
	wantA := []semiring.NodeID{0, 1, 2}
	wantB := []semiring.NodeID{3, 4}
	for _, v := range []int{0, 1, 2} {
		if !(semiring.BoolSet{}).Equal(res[v], wantA) {
			t.Fatalf("node %d reaches %v", v, res[v])
		}
	}
	for _, v := range []int{3, 4} {
		if !(semiring.BoolSet{}).Equal(res[v], wantB) {
			t.Fatalf("node %d reaches %v", v, res[v])
		}
	}
}

func TestConnectivityHopLimit(t *testing.T) {
	g := graph.PathGraph(5, 1)
	res := Connectivity(g, 2, nil)
	want := []semiring.NodeID{0, 1, 2}
	if !(semiring.BoolSet{}).Equal(res[0], want) {
		t.Fatalf("node 0 reaches %v within 2 hops, want %v", res[0], want)
	}
}

// allSimplePaths enumerates the weights of all simple v→target paths.
func allSimplePaths(g *graph.Graph, v, target graph.Node) []float64 {
	var weights []float64
	visited := make([]bool, g.N())
	var dfs func(u graph.Node, w float64)
	dfs = func(u graph.Node, w float64) {
		if u == target {
			weights = append(weights, w)
			return
		}
		visited[u] = true
		for _, a := range g.Neighbors(u) {
			if !visited[a.To] {
				dfs(a.To, w+a.Weight)
			}
		}
		visited[u] = false
	}
	dfs(v, 0)
	return weights
}

func TestKShortestDistancesBruteForce(t *testing.T) {
	g := testGraph()
	const target, k = 2, 3
	res := KShortestDistances(g, target, k, g.N(), false, nil)
	for v := 0; v < g.N(); v++ {
		weights := allSimplePaths(g, graph.Node(v), target)
		sort.Float64s(weights)
		if len(weights) > k {
			weights = weights[:k]
		}
		var got []float64
		for p, w := range res[v] {
			if p.First() != graph.Node(v) || p.Last() != target {
				t.Fatalf("node %d: stray path %v", v, p)
			}
			got = append(got, w)
		}
		sort.Float64s(got)
		if len(got) != len(weights) {
			t.Fatalf("node %d: got %v, want %v", v, got, weights)
		}
		for i := range got {
			if got[i] != weights[i] {
				t.Fatalf("node %d: weights %v, want %v", v, got, weights)
			}
		}
	}
}

func TestKShortestDistinctWeights(t *testing.T) {
	// A graph with two equal-weight parallel routes: k-DSDP must keep only
	// one path per distinct weight.
	g := graph.NewBuilder(4).Add(0, 1, 1).Add(0, 2, 1).Add(1, 3, 1).Add(2, 3, 1).Freeze()
	res := KShortestDistances(g, 3, 2, g.N(), true, nil)
	var weights []float64
	for _, w := range res[0] {
		weights = append(weights, w)
	}
	sort.Float64s(weights)
	// Simple 0→3 path weights: 2 (two ways), 2 (other), so distinct = {2}
	// plus a longer route 0-1-3? No other simple route exists except via
	// both middles: 0-1-3 (2) and 0-2-3 (2). Distinct weights: just 2.
	if len(weights) != 1 || weights[0] != 2 {
		t.Fatalf("distinct weights = %v, want [2]", weights)
	}
}

func TestIterateRejectsWrongLength(t *testing.T) {
	g := testGraph()
	r := &Runner[float64, float64]{Graph: g, Module: semiring.MinPlusSelf{}, Weight: MinPlusWeight}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong state vector length")
		}
	}()
	r.Iterate(make([]float64, 2))
}

func TestRunToFixpointStops(t *testing.T) {
	g := graph.PathGraph(10, 1)
	r := &Runner[float64, float64]{Graph: g, Module: semiring.MinPlusSelf{}, Weight: MinPlusWeight}
	x0 := make([]float64, g.N())
	for v := range x0 {
		x0[v] = semiring.Inf
	}
	x0[0] = 0
	got, iters := r.RunToFixpoint(x0, 100)
	// SPD(P_10) = 9 state-changing iterations plus the one that confirms the
	// fixpoint: 10 iterations performed.
	if iters != 10 {
		t.Fatalf("fixpoint after %d iterations, want 10 = SPD+1", iters)
	}
	if got[9] != 9 {
		t.Fatalf("dist to far end = %v", got[9])
	}
}

// TestFilteringDoesNotChangeOutput is the executable form of
// Corollary 2.17 (r^V ∼ id) and the seed of ablation A1: running source
// detection with intermediate filters produces exactly the same final
// (filtered) result as running unfiltered and filtering once at the end.
func TestFilteringDoesNotChangeOutput(t *testing.T) {
	g := randomGraph(9, 30, 80)
	const h, k = 6, 4
	filter := semiring.TopKFilter(k, semiring.Inf, nil)

	filtered := SourceDetection(g, nil, h, semiring.Inf, k, nil)

	unfilteredRunner := &Runner[float64, semiring.DistMap]{
		Graph:  g,
		Module: semiring.DistMapModule{},
		Weight: MinPlusWeight,
	}
	x0 := make([]semiring.DistMap, g.N())
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	unfiltered := unfilteredRunner.Run(x0, h)

	mod := semiring.DistMapModule{}
	for v := 0; v < g.N(); v++ {
		if !mod.Equal(filtered[v], filter(unfiltered[v])) {
			t.Fatalf("node %d: filtered run %v ≠ filter(unfiltered run) %v",
				v, filtered[v], filter(unfiltered[v]))
		}
	}
}

// TestFilteringReducesWork quantifies the efficiency claim of §2: with the
// k-SSP filter the per-iteration state stays O(k), without it the work blows
// up towards Θ(n) per node.
func TestFilteringReducesWork(t *testing.T) {
	g := randomGraph(10, 60, 200)
	const h, k = 8, 2

	trF := &par.Tracker{}
	KSSP(g, k, h, trF)

	trU := &par.Tracker{}
	APSP(g, h, trU)

	if trF.Work()*2 >= trU.Work() {
		t.Fatalf("filtered work %d not substantially below unfiltered %d",
			trF.Work(), trU.Work())
	}
}

func TestTrackerChargedPerIteration(t *testing.T) {
	g := testGraph()
	tr := &par.Tracker{}
	SSSP(g, 0, 3, tr)
	if tr.Depth() != 3 {
		t.Fatalf("depth = %d, want 3 (one per iteration)", tr.Depth())
	}
	if tr.Work() == 0 {
		t.Fatal("work not charged")
	}
}
