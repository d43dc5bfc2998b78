package kmedian

import (
	"reflect"
	"sort"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

func TestCostEvaluation(t *testing.T) {
	g := graph.PathGraph(5, 1)
	// Center at node 2: costs 2+1+0+1+2 = 6.
	if c := Cost(g, []graph.Node{2}); c != 6 {
		t.Fatalf("Cost = %v, want 6", c)
	}
	if c := Cost(g, []graph.Node{0, 4}); c != 4 {
		t.Fatalf("Cost = %v, want 4 (1+0+...)", c)
	}
}

func TestMultiSourceDijkstraAgainstSingle(t *testing.T) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(50, 120, 6, rng)
	sources := []graph.Node{3, 17, 42}
	dist, nearest := graph.MultiSourceDijkstra(g, sources)
	per := make([][]float64, len(sources))
	for i, s := range sources {
		per[i] = graph.Dijkstra(g, s).Dist
	}
	for v := 0; v < g.N(); v++ {
		want := per[0][v]
		for i := 1; i < len(sources); i++ {
			if per[i][v] < want {
				want = per[i][v]
			}
		}
		if dist[v] != want {
			t.Fatalf("node %d: multi-source %v vs min-single %v", v, dist[v], want)
		}
		// nearest must attain the distance.
		found := false
		for i, s := range sources {
			if nearest[v] == s && per[i][v] == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d: nearest %d does not attain distance", v, nearest[v])
		}
	}
}

func TestQuickSelect(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 3, 0}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for k := range sorted {
		cp := append([]float64(nil), xs...)
		if got := quickSelect(cp, k); got != sorted[k] {
			t.Fatalf("quickSelect(%d) = %v, want %v", k, got, sorted[k])
		}
	}
}

func TestSampleCandidatesCoversOptimum(t *testing.T) {
	rng := par.NewRNG(2)
	g := graph.Clustered(4, 20, 100, rng)
	cands := SampleCandidates(g, 4, rng, nil)
	if len(cands) < 4 {
		t.Fatalf("only %d candidates", len(cands))
	}
	if len(cands) > g.N() {
		t.Fatal("more candidates than nodes")
	}
	// Every cluster should contribute at least one candidate: with one
	// candidate per cluster the serving cost stays within a constant of
	// optimal.
	seen := make(map[int]bool)
	for _, q := range cands {
		seen[int(q)/20] = true
	}
	if len(seen) != 4 {
		t.Fatalf("candidates cover %d/4 clusters", len(seen))
	}
}

func TestTreeKMedianSinglePath(t *testing.T) {
	// A path graph's FRT tree with uniform weights: k = n must cost 0.
	g := graph.PathGraph(6, 1)
	rng := par.NewRNG(3)
	emb, err := frt.SampleOnGraph(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 6)
	for i := range w {
		w[i] = 1
	}
	picked := TreeKMedian(emb.Tree, w, nil, 6)
	if len(picked) != 6 {
		t.Fatalf("k=n picked %d centers", len(picked))
	}
}

// treeCostOf evaluates the weighted tree k-median objective directly.
func treeCostOf(tr *frt.Tree, weight []float64, centers []int32) float64 {
	total := 0.0
	for leaf := range weight {
		best := -1.0
		for _, c := range centers {
			d := tr.Dist(graph.Node(leaf), graph.Node(c))
			if best < 0 || d < best {
				best = d
			}
		}
		total += weight[leaf] * best
	}
	return total
}

func TestTreeKMedianMatchesBruteForceOnTree(t *testing.T) {
	rng := par.NewRNG(4)
	g := graph.RandomConnected(10, 20, 6, rng)
	emb, err := frt.SampleOnGraph(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	weight := make([]float64, 10)
	for i := range weight {
		weight[i] = float64(1 + rng.Intn(5))
	}
	for k := 1; k <= 4; k++ {
		picked := TreeKMedian(emb.Tree, weight, nil, k)
		if len(picked) == 0 || len(picked) > k {
			t.Fatalf("k=%d: picked %d centers", k, len(picked))
		}
		got := treeCostOf(emb.Tree, weight, picked)
		// Brute force over all k-subsets of leaves.
		best := -1.0
		idx := make([]int32, k)
		var rec func(start, depth int)
		rec = func(start, depth int) {
			if depth == k {
				c := treeCostOf(emb.Tree, weight, idx)
				if best < 0 || c < best {
					best = c
				}
				return
			}
			for v := start; v < 10; v++ {
				idx[depth] = int32(v)
				rec(v+1, depth+1)
			}
		}
		rec(0, 0)
		if got > best+1e-9 {
			t.Fatalf("k=%d: DP cost %v worse than brute force %v", k, got, best)
		}
	}
}

func TestSolveOnClusteredGraph(t *testing.T) {
	rng := par.NewRNG(5)
	g := graph.Clustered(3, 15, 200, rng)
	res, err := Solve(g, 3, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 3 {
		t.Fatalf("bad center count %d", len(res.Centers))
	}
	// With one center per planted cluster the cost is O(intra-cluster);
	// picking any cluster-less solution pays ≥ 200 per stranded cluster.
	// The O(log k) guarantee must land us well below that.
	if res.Cost >= 200 {
		t.Fatalf("cost %v suggests a cluster was left unserved", res.Cost)
	}
}

func TestSolveApproximationVsBruteForce(t *testing.T) {
	rng := par.NewRNG(6)
	g := graph.RandomConnected(24, 60, 6, rng)
	const k = 3
	opt := BruteForce(g, k)
	res, err := Solve(g, k, Options{RNG: rng, Trees: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < opt.Cost-1e-9 {
		t.Fatalf("approximation %v beats the optimum %v — brute force broken", res.Cost, opt.Cost)
	}
	// Expected O(log k)-approximation; with k=3 and 5 trees a ratio beyond
	// 6 would indicate a broken pipeline.
	if res.Cost > 6*opt.Cost {
		t.Fatalf("ratio %v implausibly large", res.Cost/opt.Cost)
	}
}

// TestSolveIsBestPerTreeSolve pins the best-of-K fold: Solve over the whole
// ensemble must return exactly the cheapest of the per-tree solves
// (FirstTree=t, Trees=1) — the plans a sharded router merges — with ties
// going to the lower tree.
func TestSolveIsBestPerTreeSolve(t *testing.T) {
	const k, trees = 4, 6
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		rng := par.NewRNG(seed)
		g := graph.RandomConnected(128, 512, 20, rng)
		emb, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := emb.SampleEnsemble(trees)
		if err != nil {
			t.Fatal(err)
		}
		all, err := Solve(g, k, Options{RNG: par.NewRNG(seed + 100), Ensemble: ens})
		if err != nil {
			t.Fatal(err)
		}
		var best *Result
		for ti := 0; ti < trees; ti++ {
			one, err := Solve(g, k, Options{RNG: par.NewRNG(seed + 100), Ensemble: ens, FirstTree: ti, Trees: 1})
			if err != nil {
				t.Fatal(err)
			}
			if best == nil || one.Cost < best.Cost {
				best = one
			}
		}
		if !reflect.DeepEqual(all, best) {
			t.Fatalf("seed %d: Solve chose %v (cost %v), best per-tree plan %v (cost %v)",
				seed, all.Centers, all.Cost, best.Centers, best.Cost)
		}
	}
}

func TestSolveInjectedEnsemble(t *testing.T) {
	rng := par.NewRNG(11)
	g := graph.Clustered(3, 12, 150, rng)
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := emb.SampleEnsemble(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, 3, Options{RNG: rng, Ensemble: ens})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 3 {
		t.Fatalf("bad center count %d", len(res.Centers))
	}
	if res.Cost >= 150 {
		t.Fatalf("cost %v suggests a cluster was left unserved", res.Cost)
	}
	// A tree whose weights differ within a level would be mispriced by the
	// DP: it is refused.
	skewed := *ens.Trees[0]
	skewed.EdgeWeight = append([]float64(nil), skewed.EdgeWeight...)
	skewed.EdgeWeight[skewed.Leaf[3]] /= 2
	if _, err := Solve(g, 3, Options{RNG: rng, Ensemble: &frt.Ensemble{Trees: []*frt.Tree{&skewed}}}); err == nil {
		t.Fatal("Solve accepted a tree that breaks the layout contract")
	}
}

func TestSolveSmallKReturnsDirectly(t *testing.T) {
	rng := par.NewRNG(7)
	g := graph.PathGraph(10, 1)
	res, err := Solve(g, 5, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > 10 {
		t.Fatal("too many centers")
	}
}

func TestSolveValidatesInput(t *testing.T) {
	g := graph.PathGraph(5, 1)
	if _, err := Solve(g, 0, Options{RNG: par.NewRNG(1)}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Solve(g, 6, Options{RNG: par.NewRNG(1)}); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Solve(g, 2, Options{}); err == nil {
		t.Fatal("missing RNG accepted")
	}
}

func TestLocalSearchImprovesRandomStart(t *testing.T) {
	rng := par.NewRNG(8)
	g := graph.Clustered(3, 12, 100, rng)
	res := LocalSearch(g, 3, rng, 50)
	if len(res.Centers) != 3 {
		t.Fatalf("center count %d", len(res.Centers))
	}
	// Local search is a (3+ε)-approximation; on this planted instance it
	// must serve all clusters.
	if res.Cost >= 100 {
		t.Fatalf("local search cost %v left a cluster unserved", res.Cost)
	}
}

func TestBruteForceTiny(t *testing.T) {
	g := graph.PathGraph(5, 1)
	res := BruteForce(g, 2)
	// Optimal 2-median on path of 5 unit edges: centers {1,3}: cost
	// 1+0+1+0+1 = 3.
	if res.Cost != 3 {
		t.Fatalf("brute force cost %v, want 3", res.Cost)
	}
}

func TestAssignmentConsistentWithCost(t *testing.T) {
	rng := par.NewRNG(9)
	g := graph.RandomConnected(30, 70, 5, rng)
	centers := []graph.Node{2, 17, 25}
	assign := Assignment(g, centers)
	total := 0.0
	for v := 0; v < g.N(); v++ {
		c := assign[v]
		found := false
		for _, f := range centers {
			if f == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d assigned to non-center %d", v, c)
		}
		total += graph.Dijkstra(g, c).Dist[v]
	}
	if diff := total - Cost(g, centers); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("assignment cost %v vs Cost %v", total, Cost(g, centers))
	}
}

// TestSolveFewCandidatesShortCircuit: when sampling leaves no more than k
// candidates, Solve returns them directly with an exact cost — no tree stage.
func TestSolveFewCandidatesShortCircuit(t *testing.T) {
	g := graph.RandomConnected(12, 24, 6, par.NewRNG(61))
	res, err := Solve(g, 5, Options{RNG: par.NewRNG(62)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 {
		t.Fatal("no centers")
	}
	if want := Cost(g, res.Centers); res.Cost != want {
		t.Fatalf("cost %v, exact evaluation %v", res.Cost, want)
	}
	if _, err := Solve(g, 0, Options{RNG: par.NewRNG(1)}); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := Solve(g, 99, Options{RNG: par.NewRNG(1)}); err == nil {
		t.Fatal("k>n must error")
	}
	if _, err := Solve(g, 2, Options{}); err == nil {
		t.Fatal("missing RNG must error")
	}
}
