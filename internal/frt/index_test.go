package frt

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// sampleEnsembleForIndex draws K trees of a random graph with the cheap
// direct sampler — the query layer under test is independent of how the
// trees were constructed.
func sampleEnsembleForIndex(t testing.TB, seed uint64, n, m, k int) (*graph.Graph, *Ensemble) {
	t.Helper()
	rng := par.NewRNG(seed)
	g := graph.RandomConnected(n, m, 8, rng)
	e, err := sampleEnsemble(k, func() (*Embedding, error) { return SampleOnGraph(g, rng, nil) })
	if err != nil {
		t.Fatal(err)
	}
	return g, e
}

// maxProcsSettings are the parallel widths the differential suite sweeps:
// forced-sequential, a fixed small width, and whatever the machine has.
func maxProcsSettings() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// TestIndexDifferential is the pinning suite for the query rewrite: on
// random graphs and random pairs, OracleIndex.TreeDist must equal the
// parent-walk Tree.Dist (u == v included) and OracleIndex.MinBatch the walk-based
// min-over-trees bitwise (==, not within epsilon), for every par.MaxProcs
// setting. The index may only change how distances are computed, never
// their bits.
func TestIndexDifferential(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	type gcase struct {
		name string
		g    *graph.Graph
		e    *Ensemble
	}
	rngG := par.NewRNG(7)
	grid := graph.GridGraph(6, 6, 5, rngG)
	gridEns, err := sampleEnsemble(4, func() (*Embedding, error) { return SampleOnGraph(grid, rngG, nil) })
	if err != nil {
		t.Fatal(err)
	}
	randG, randEns := sampleEnsembleForIndex(t, 11, 80, 240, 5)
	pathG := graph.PathGraph(17, 2)
	pathEns, err := sampleEnsemble(3, func() (*Embedding, error) { return SampleOnGraph(pathG, par.NewRNG(13), nil) })
	if err != nil {
		t.Fatal(err)
	}
	cases := []gcase{{"grid", grid, gridEns}, {"random", randG, randEns}, {"path", pathG, pathEns}}

	for _, procs := range maxProcsSettings() {
		par.MaxProcs = procs
		for _, c := range cases {
			// Fresh index per width so the parallel build itself is under test.
			idx, err := NewOracleIndex(c.e.Trees)
			if err != nil {
				t.Fatal(err)
			}
			n := c.g.N()
			prng := par.NewRNG(uint64(1000 + procs))
			pairs := make([]Pair, 0, 203)
			for i := 0; i < 200; i++ {
				pairs = append(pairs, Pair{U: graph.Node(prng.Intn(n)), V: graph.Node(prng.Intn(n))})
			}
			// Edge pairs: equal endpoints, extremes.
			pairs = append(pairs, Pair{U: 0, V: 0}, Pair{U: 0, V: graph.Node(n - 1)}, Pair{U: graph.Node(n - 1), V: 0})

			for ti, tr := range c.e.Trees {
				for _, p := range pairs {
					if got, want := idx.TreeDist(p.U, p.V, ti), tr.Dist(p.U, p.V); got != want {
						t.Fatalf("procs=%d %s tree %d: TreeDist(%d,%d)=%v, walk %v",
							procs, c.name, ti, p.U, p.V, got, want)
					}
				}
			}
			got := idx.MinBatch(pairs, nil)
			for i, p := range pairs {
				want := c.e.minWalk(p.U, p.V)
				if got[i] != want {
					t.Fatalf("procs=%d %s: MinBatch(%d,%d)=%v, walk min %v", procs, c.name, p.U, p.V, got[i], want)
				}
				if med, wmed := idx.Median(p.U, p.V), medianWalkDirect(c.e.Trees, p.U, p.V); med != wmed {
					t.Fatalf("procs=%d %s: Median(%d,%d)=%v, walk median %v", procs, c.name, p.U, p.V, med, wmed)
				}
			}
			if med := idx.MedianBatch(pairs, nil); !reflect.DeepEqual(medBatchWalk(c.e.Trees, pairs), med) {
				t.Fatalf("procs=%d %s: MedianBatch differs from walk medians", procs, c.name)
			}
		}
	}
}

func medBatchWalk(trees []*Tree, pairs []Pair) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = medianWalkDirect(trees, p.U, p.V)
	}
	return out
}

// medianWalkDirect sorts per-tree parent-walk distances without any index.
func medianWalkDirect(trees []*Tree, u, v graph.Node) float64 {
	ds := make([]float64, len(trees))
	for i, tr := range trees {
		ds[i] = tr.Dist(u, v)
	}
	insertionSort(ds)
	mid := len(ds) / 2
	if len(ds)%2 == 1 {
		return ds[mid]
	}
	return (ds[mid-1] + ds[mid]) / 2
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestOracleIndexFastPathSelection pins the layout selection: on sampled
// trees (n ≤ 65536) the index must take the all-16-bit rows that Min's fast
// loop scans — if that silently stops applying, the serving path regresses
// with no functional failure to flag it.
func TestOracleIndexFastPathSelection(t *testing.T) {
	_, e := sampleEnsembleForIndex(t, 61, 48, 120, 4)
	idx, err := e.Index()
	if err != nil {
		t.Fatal(err)
	}
	if idx.split != 0 || idx.packedLo != nil {
		t.Fatalf("32-bit low rows built for a small graph (split=%d)", idx.split)
	}
}

// perturbLeafEdge returns a copy of tr whose leaf edge of graph node v
// carries half its weight: the tree is sound but no longer level-uniform,
// so it breaks the layout contract.
func perturbLeafEdge(tr *Tree, v graph.Node) *Tree {
	cp := *tr
	cp.EdgeWeight = append([]float64(nil), tr.EdgeWeight...)
	cp.EdgeWeight[tr.Leaf[v]] /= 2
	return &cp
}

// TestOracleIndexKernelsAgree runs Min's fast loop on a BuildTree ensemble,
// on random pairs and on every pair with one fixed node. Min, Median,
// MinBatch, MedianBatch and PerTreeBatch must reproduce the walk bitwise at
// every par.MaxProcs setting. The general loop is TestOracleIndexSplitLanes'.
func TestOracleIndexKernelsAgree(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	g, e := sampleEnsembleForIndex(t, 71, 64, 160, 5)
	const fixed = 7
	prng := par.NewRNG(72)
	pairs := make([]Pair, 150, 150+2*g.N())
	for i := range pairs {
		pairs[i] = Pair{U: graph.Node(prng.Intn(g.N())), V: graph.Node(prng.Intn(g.N()))}
	}
	for v := graph.Node(0); v < graph.Node(g.N()); v++ {
		pairs = append(pairs, Pair{U: fixed, V: v}, Pair{U: v, V: fixed})
	}
	for _, procs := range maxProcsSettings() {
		par.MaxProcs = procs
		idx, err := NewOracleIndex(e.Trees)
		if err != nil {
			t.Fatal(err)
		}
		mins := idx.MinBatch(pairs, nil)
		meds := idx.MedianBatch(pairs, nil)
		per, err := idx.PerTreeBatch(pairs, 0, idx.k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			want := e.minWalk(p.U, p.V)
			if got := idx.Min(p.U, p.V); got != want || mins[i] != want {
				t.Fatalf("procs=%d: Min(%d,%d)=%v, MinBatch %v, walk %v", procs, p.U, p.V, got, mins[i], want)
			}
			wmed := medianWalkDirect(e.Trees, p.U, p.V)
			if got := idx.Median(p.U, p.V); got != wmed || meds[i] != wmed {
				t.Fatalf("procs=%d: Median(%d,%d)=%v, MedianBatch %v, walk %v", procs, p.U, p.V, got, meds[i], wmed)
			}
			for ti, tr := range e.Trees {
				if got, want := per[i*idx.k+ti], tr.Dist(p.U, p.V); got != want {
					t.Fatalf("procs=%d: PerTreeBatch(%d,%d) tree %d = %v, walk %v", procs, p.U, p.V, ti, got, want)
				}
			}
		}
	}
}

// TestOracleIndexReleasesSupersededTables pins the memory contract: on
// BuildTree ensembles the weight table is one k·stride row set, not one row
// per leaf, and no 32-bit low rows are held below 65536 nodes.
func TestOracleIndexReleasesSupersededTables(t *testing.T) {
	_, e := sampleEnsembleForIndex(t, 91, 32, 80, 3)
	idx, err := NewOracleIndex(e.Trees)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.pw) != idx.k*idx.stride {
		t.Fatalf("weight table holds %d entries, want k·stride = %d", len(idx.pw), idx.k*idx.stride)
	}
	if idx.packedLo != nil {
		t.Fatalf("low rows retained: %d words", len(idx.packedLo))
	}
}

// TestOracleIndexRefusesLayoutBreakers: sound trees that break the layout
// contract — a reweighted leaf edge, permuted node ids, and both — must
// fail Validate and NewOracleIndex, on sampled trees and on split-lane ones,
// while the trees they came from pass both.
func TestOracleIndexRefusesLayoutBreakers(t *testing.T) {
	_, e := sampleEnsembleForIndex(t, 101, 64, 160, 2)
	big := bigSyntheticTree(1<<16+512, 300, false, 1, 4)
	prng := par.NewRNG(102)
	for _, c := range []struct {
		name string
		tr   *Tree
	}{
		{"sampled", e.Trees[0]},
		{"split", big},
	} {
		if err := c.tr.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := NewOracleIndex([]*Tree{c.tr}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, b := range []struct {
			name string
			tr   *Tree
		}{
			{"non-uniform", perturbLeafEdge(c.tr, 17)},
			{"permuted", permuteTree(c.tr, prng)},
			{"permuted-non-uniform", permuteTree(perturbLeafEdge(c.tr, 3), prng)},
		} {
			if err := b.tr.Validate(); err == nil {
				t.Fatalf("%s/%s: Validate accepted the tree", c.name, b.name)
			}
			if _, err := NewOracleIndex([]*Tree{c.tr, b.tr}); err == nil || !strings.Contains(err.Error(), "tree 1") {
				t.Fatalf("%s/%s: NewOracleIndex error %v, want one naming tree 1", c.name, b.name, err)
			}
		}
	}
}

// TestEnsembleQueriesUseIndex asserts the rewiring: Ensemble.Min/Median
// answer identically to the walk after the index is built lazily.
func TestEnsembleQueriesUseIndex(t *testing.T) {
	g, e := sampleEnsembleForIndex(t, 21, 40, 100, 4)
	if _, err := e.Index(); err != nil {
		t.Fatal(err)
	}
	for u := graph.Node(0); u < graph.Node(g.N()); u += 3 {
		for v := u; v < graph.Node(g.N()); v += 7 {
			if got, want := e.Min(u, v), e.minWalk(u, v); got != want {
				t.Fatalf("Min(%d,%d)=%v, walk %v", u, v, got, want)
			}
			if got, want := e.Median(u, v), medianWalkDirect(e.Trees, u, v); got != want {
				t.Fatalf("Median(%d,%d)=%v, walk %v", u, v, got, want)
			}
		}
	}
}

// TestTreeIndexRejectsInvalidTrees covers the structural guards: empty trees,
// unequal leaf depths, out-of-range leaves and parents, and parent cycles
// must fail Validate and refuse an OracleIndex (and, matching the Dist
// edge-case fix, the walk reports +Inf on unequal depths instead of
// panicking).
func TestTreeIndexRejectsInvalidTrees(t *testing.T) {
	// Root with one leaf child at depth 1 and one at depth 2.
	uneven := &Tree{
		Parent:     []int32{-1, 0, 0, 2},
		EdgeWeight: []float64{0, 2, 4, 2},
		Center:     []graph.Node{0, 0, 1, 1},
		Level:      []int32{2, 1, 1, 0},
		Leaf:       []int32{1, 3},
		Beta:       1.5,
	}
	if d := uneven.Dist(0, 1); !math.IsInf(d, 1) {
		t.Fatalf("Dist on unequal-depth tree = %v, want +Inf", d)
	}
	// A valid two-leaf tree, then copies with one defect each.
	valid := func() *Tree {
		return &Tree{
			Parent:     []int32{-1, 0, 0},
			EdgeWeight: []float64{0, 1, 1},
			Center:     []graph.Node{0, 0, 1},
			Level:      []int32{1, 0, 0},
			Leaf:       []int32{1, 2},
			Beta:       1.5,
		}
	}
	leafOOB, leafNeg, cycle := valid(), valid(), valid()
	leafOOB.Leaf[1] = 3
	leafNeg.Leaf[1] = -1
	// Leaf 1's parent chain 2 → 3 → 4 → 3 never reaches the root.
	cycle.Parent = append(cycle.Parent, 3, 4)
	cycle.Parent[2], cycle.Parent[4] = 3, 3
	cycle.EdgeWeight = append(cycle.EdgeWeight, 1, 1)
	cycle.Center = append(cycle.Center, 1, 1)
	cycle.Level = append(cycle.Level, 0, 0)
	for _, c := range []struct {
		name string
		tr   *Tree
	}{
		{"empty", &Tree{}},
		{"uneven depth", uneven},
		{"out-of-range parent", &Tree{
			Parent:     []int32{-1, 7},
			EdgeWeight: []float64{0, 1},
			Center:     []graph.Node{0, 0},
			Level:      []int32{1, 0},
			Leaf:       []int32{1},
		}},
		{"out-of-range leaf", leafOOB},
		{"negative leaf", leafNeg},
		{"parent cycle", cycle},
	} {
		if err := c.tr.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted the tree", c.name)
		}
		if _, err := NewOracleIndex([]*Tree{valid(), c.tr}); err == nil {
			t.Fatalf("%s: OracleIndex built", c.name)
		}
	}
	if _, err := NewOracleIndex([]*Tree{valid()}); err != nil {
		t.Fatalf("valid tree refused: %v", err)
	}
}

// TestIndexErrorNamesLowestNode pins the error of a tree with several
// broken leaves: the index names the lowest one, whatever the parallel
// width. Most broken leaves open a parallel chunk, so a first-found report
// would often name a higher node.
func TestIndexErrorNamesLowestNode(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	const n = 4000
	tr := bigSyntheticTree(n, 10, false, 1, 4)
	// With 4 workers a chunk is 125 leaves: break the last leaf of the first
	// chunk and the first leaf of every other.
	for _, v := range []int{124, 125, 250, 375, 500, 2000, 3875} {
		tr.Leaf[v] = 2 // a group node: its chain is one level short
	}
	want := "graph node 124 "
	for _, procs := range []int{1, 4} {
		par.MaxProcs = procs
		for rep := 0; rep < 20; rep++ {
			if _, err := NewOracleIndex([]*Tree{tr}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("procs %d: NewOracleIndex error %v, want one naming %q", procs, err, want)
			}
		}
	}
}

// TestIndexAccessors pins the shape-reporting API.
func TestIndexAccessors(t *testing.T) {
	g, e := sampleEnsembleForIndex(t, 81, 25, 60, 3)
	idx, err := e.Index()
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumTrees() != 3 || idx.NumLeaves() != g.N() {
		t.Fatalf("oracle shape: %d trees, %d leaves", idx.NumTrees(), idx.NumLeaves())
	}
	maxDepth := 0
	for _, tr := range e.Trees {
		if d := tr.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if idx.MaxDepth() != maxDepth {
		t.Fatalf("MaxDepth = %d, want %d", idx.MaxDepth(), maxDepth)
	}
}

// TestEnsembleWalkFallback: an ensemble whose trees the index refuses
// (structurally invalid) must still answer Min/Median through the parent
// walk instead of failing or panicking.
func TestEnsembleWalkFallback(t *testing.T) {
	uneven := &Tree{
		Parent:     []int32{-1, 0, 0, 2},
		EdgeWeight: []float64{0, 2, 4, 2},
		Center:     []graph.Node{0, 0, 1, 1},
		Level:      []int32{2, 1, 1, 0},
		Leaf:       []int32{1, 3},
		Beta:       1.5,
	}
	e := &Ensemble{Trees: []*Tree{uneven}}
	if _, err := e.Index(); err == nil {
		t.Fatal("invalid tree indexed")
	}
	if d := e.Min(0, 1); !math.IsInf(d, 1) {
		t.Fatalf("fallback Min = %v, want +Inf (walk on invalid tree)", d)
	}
	if d := e.Median(0, 1); !math.IsInf(d, 1) {
		t.Fatalf("fallback Median = %v, want +Inf", d)
	}
}

// TestTreeDepthEmptyTree covers the Leaf[0] guard.
func TestTreeDepthEmptyTree(t *testing.T) {
	if d := (&Tree{}).Depth(); d != 0 {
		t.Fatalf("empty tree depth = %d, want 0", d)
	}
}

// TestMinBatchReusesOutput pins the buffer-recycling contract of the
// batched APIs.
func TestMinBatchReusesOutput(t *testing.T) {
	_, e := sampleEnsembleForIndex(t, 41, 20, 50, 3)
	idx, err := e.Index()
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{{U: 0, V: 1}, {U: 2, V: 3}}
	buf := make([]float64, 8)
	out := idx.MinBatch(pairs, buf)
	if len(out) != len(pairs) || &out[0] != &buf[0] {
		t.Fatal("MinBatch did not reuse the supplied buffer")
	}
	if out2 := idx.MinBatch(pairs, nil); out2[0] != out[0] || out2[1] != out[1] {
		t.Fatal("allocating and reusing paths disagree")
	}
}

// TestOracleIndexRejectsMismatchedTrees covers the constructor guards.
func TestOracleIndexRejectsMismatchedTrees(t *testing.T) {
	if _, err := NewOracleIndex(nil); err == nil {
		t.Fatal("empty ensemble indexed")
	}
	_, e1 := sampleEnsembleForIndex(t, 51, 10, 20, 1)
	_, e2 := sampleEnsembleForIndex(t, 52, 12, 24, 1)
	if _, err := NewOracleIndex([]*Tree{e1.Trees[0], e2.Trees[0]}); err == nil {
		t.Fatal("mismatched node counts indexed")
	}
}
