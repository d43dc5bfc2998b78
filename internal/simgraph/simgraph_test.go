package simgraph

import (
	"math"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func buildH(seed uint64, n, m int) (*graph.Graph, *H) {
	rng := par.NewRNG(seed)
	g := graph.RandomConnected(n, m, 8, rng)
	hs := hopset.DefaultSkeleton(g, rng, nil)
	return g, Build(hs, 0, rng)
}

func TestBuildLevels(t *testing.T) {
	_, h := buildH(1, 60, 150)
	maxLevel := 0
	for _, l := range h.Level {
		if l < 0 {
			t.Fatalf("negative level %d", l)
		}
		if l > maxLevel {
			maxLevel = l
		}
	}
	if h.Lambda != maxLevel {
		t.Fatalf("Lambda = %d, max level = %d", h.Lambda, maxLevel)
	}
	if len(h.scale) != h.Lambda+1 {
		t.Fatal("scale cache size wrong")
	}
	// Scales decrease with level: high levels are cheaper.
	for l := 1; l <= h.Lambda; l++ {
		if h.scale[l] >= h.scale[l-1] {
			t.Fatalf("scale not decreasing: scale[%d]=%v scale[%d]=%v", l-1, h.scale[l-1], l, h.scale[l])
		}
	}
	if h.scale[h.Lambda] != 1 {
		t.Fatalf("top level scale = %v, want 1", h.scale[h.Lambda])
	}
}

func TestDefaultEpsHatSmall(t *testing.T) {
	for _, n := range []int{10, 100, 10000} {
		e := DefaultEpsHat(n)
		if e <= 0 || e > 0.1 {
			t.Fatalf("DefaultEpsHat(%d) = %v", n, e)
		}
	}
}

func TestEdgeLevelIsMin(t *testing.T) {
	_, h := buildH(2, 30, 70)
	for v := 0; v < 10; v++ {
		for w := 0; w < 10; w++ {
			want := h.Level[v]
			if h.Level[w] < want {
				want = h.Level[w]
			}
			if got := h.EdgeLevel(graph.Node(v), graph.Node(w)); got != want {
				t.Fatalf("EdgeLevel(%d,%d) = %d, want %d", v, w, got, want)
			}
		}
	}
}

// TestHDistanceSandwich is experiment E3 in miniature (Theorem 4.5,
// Equation 4.14): dist_G ≤ dist_H ≤ (1+ε̂)^{Λ+1} · dist_G.
func TestHDistanceSandwich(t *testing.T) {
	g, h := buildH(3, 50, 120)
	hg := h.Materialize()
	exactG := graph.APSPDijkstra(g)
	exactH := graph.APSPDijkstra(hg)
	bound := math.Pow(1+h.EpsHat, float64(h.Lambda+1))
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			dg, dh := exactG.At(v, w), exactH.At(v, w)
			if dh < dg-1e-9 {
				t.Fatalf("dist_H(%d,%d)=%v below dist_G=%v", v, w, dh, dg)
			}
			if dh > bound*dg+1e-9 {
				t.Fatalf("dist_H(%d,%d)=%v exceeds (1+ε̂)^{Λ+1}·dist_G=%v", v, w, dh, bound*dg)
			}
		}
	}
}

// TestSPDOfHIsSmall is experiment E2 in miniature (Theorem 4.5):
// SPD(H) ∈ O(log² n) w.h.p., compared against SPD of the original graph on
// a workload engineered to have large SPD.
func TestSPDOfHIsSmall(t *testing.T) {
	rng := par.NewRNG(4)
	g := graph.PathGraph(100, 1) // SPD(G) = 99
	hs := hopset.DefaultSkeleton(g, rng, nil)
	h := Build(hs, 0, rng)
	spd := graph.SPD(h.Materialize())
	if cap := MaxIters(g.N()); spd > cap {
		t.Fatalf("SPD(H) = %d exceeds O(log² n) cap %d", spd, cap)
	}
	if spd >= 99 {
		t.Fatalf("SPD(H) = %d did not improve over SPD(G) = 99", spd)
	}
}

func TestEdgeWeightMatchesMaterialized(t *testing.T) {
	_, h := buildH(5, 25, 60)
	hg := h.Materialize()
	for v := graph.Node(0); v < 10; v++ {
		for w := v + 1; w < 10; w++ {
			want, ok := hg.HasEdge(v, w)
			if !ok {
				t.Fatalf("H not complete at {%d,%d}", v, w)
			}
			if got := h.EdgeWeight(v, w); math.Abs(got-want) > 1e-9 {
				t.Fatalf("EdgeWeight(%d,%d) = %v, want %v", v, w, got, want)
			}
		}
	}
	if h.EdgeWeight(3, 3) != 0 {
		t.Fatal("EdgeWeight(v,v) should be 0")
	}
}

// TestOracleMatchesExplicitH is the central correctness test of the §5
// decomposition: running APSP through the oracle must produce exactly the
// distances of the explicitly materialised H.
func TestOracleMatchesExplicitH(t *testing.T) {
	_, h := buildH(6, 40, 90)
	n := h.N()
	oracle := NewOracle(h, nil)
	x0 := make([]semiring.DistMap, n)
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	identity := semiring.Identity[semiring.DistMap]()
	got, iters := oracle.RunToFixpoint(x0, identity, MaxIters(n))
	if iters >= MaxIters(n) {
		t.Fatalf("oracle did not reach a fixpoint within %d iterations", MaxIters(n))
	}
	exactH := graph.APSPDijkstra(h.Materialize())
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			want := exactH.At(v, w)
			if gotD := got[v].Get(graph.Node(w)); math.Abs(gotD-want) > 1e-9 {
				t.Fatalf("oracle APSP (%d,%d) = %v, explicit H = %v", v, w, gotD, want)
			}
		}
	}
}

// TestOracleWithFilterMatchesFilteredExact verifies Corollary 2.17 on H:
// running the oracle *with* a top-k filter throughout equals filtering the
// exact result once.
func TestOracleWithFilterMatchesFilteredExact(t *testing.T) {
	_, h := buildH(7, 35, 80)
	n := h.N()
	const k = 3
	filter := semiring.TopKFilter(k, semiring.Inf, nil)
	oracle := NewOracle(h, nil)
	x0 := make([]semiring.DistMap, n)
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	got, _ := oracle.RunToFixpoint(x0, filter, MaxIters(n))

	exactH := graph.APSPDijkstra(h.Materialize())
	mod := semiring.DistMapModule{}
	for v := 0; v < n; v++ {
		full := semiring.NewDistMap(n)
		for w := 0; w < n; w++ {
			if !semiring.IsInf(exactH.At(v, w)) {
				full = full.Append(graph.Node(w), exactH.At(v, w))
			}
		}
		want := filter(full)
		// Compare allowing float slack: entries must agree in node set and
		// distances up to 1e-9.
		if want.Len() != got[v].Len() {
			t.Fatalf("node %d: %v vs %v", v, got[v], want)
		}
		for i := 0; i < want.Len(); i++ {
			if want.Node(i) != got[v].Node(i) || math.Abs(want.Dist(i)-got[v].Dist(i)) > 1e-9 {
				t.Fatalf("node %d: %v vs %v", v, got[v], want)
			}
		}
		_ = mod
	}
}

func TestOracleTracksWork(t *testing.T) {
	_, h := buildH(8, 30, 70)
	tr := &par.Tracker{}
	oracle := NewOracle(h, tr)
	x0 := make([]semiring.DistMap, h.N())
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	oracle.Run(x0, semiring.TopKFilter(2, semiring.Inf, nil), 2)
	if tr.Work() == 0 || tr.Depth() == 0 {
		t.Fatal("tracker not charged")
	}
}

// TestOracleChargesDeepestLevel pins the cost accounting of one oracle
// iteration: the Λ+1 level runs are independent, so the iteration charges
// their summed work but only the depth of the deepest of them.
func TestOracleChargesDeepestLevel(t *testing.T) {
	_, h := buildH(9, 60, 150)
	filter := semiring.TopKFilter(3, semiring.Inf, nil)
	x := semiring.SingletonStates(h.N())
	tr := &par.Tracker{}
	oracle := NewOracle(h, tr)
	oracle.Iterate(x, filter)
	var work, depth, depthSum int64
	for lambda := 0; lambda <= h.Lambda; lambda++ {
		runner := oracle.levelRunner(lambda)
		level := &par.Tracker{}
		runner.Tracker = level
		px := make([]semiring.DistMap, len(x)) // P_λ x
		for v := range x {
			if h.Level[v] >= lambda {
				px[v] = x[v]
			}
		}
		runner.RunToFixpoint(px, h.Hop.D)
		work += level.Work()
		depth = max(depth, level.Depth())
		depthSum += level.Depth()
	}
	if tr.Work() != work || tr.Depth() != depth {
		t.Fatalf("oracle charged work %d depth %d, want the level runs' summed work %d and deepest depth %d",
			tr.Work(), tr.Depth(), work, depth)
	}
	if depthSum == depth {
		t.Fatal("only one level does any work; the test cannot tell max from sum")
	}
}

func TestMaxItersGrowsPolylog(t *testing.T) {
	if MaxIters(16) >= MaxIters(1<<20) {
		t.Fatal("MaxIters not increasing")
	}
	if MaxIters(1<<20) > 4*22*22 {
		t.Fatalf("MaxIters(2^20) = %d implausibly large", MaxIters(1<<20))
	}
}
