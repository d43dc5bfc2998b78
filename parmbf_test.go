package parmbf

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestFacadeSampleTree(t *testing.T) {
	g := RandomConnected(50, 120, 6, NewRNG(1))
	emb, err := SampleTree(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	exact := ExactAPSP(g)
	for u := 0; u < g.N(); u += 5 {
		for v := u + 1; v < g.N(); v += 7 {
			if emb.Tree.Dist(Node(u), Node(v)) < exact.At(u, v)-1e-9 {
				t.Fatalf("dominance violated at (%d,%d)", u, v)
			}
		}
	}
}

func TestFacadeDeterminism(t *testing.T) {
	g := RandomConnected(30, 70, 5, NewRNG(2))
	a, err := SampleTree(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleTree(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree.Beta != b.Tree.Beta || a.Tree.NumNodes() != b.Tree.NumNodes() {
		t.Fatal("same seed produced different embeddings")
	}
	for v := 0; v < g.N(); v++ {
		for w := v + 1; w < g.N(); w++ {
			if a.Tree.Dist(Node(v), Node(w)) != b.Tree.Dist(Node(v), Node(w)) {
				t.Fatal("same seed produced different tree metrics")
			}
		}
	}
	c, err := SampleTree(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree.Beta == c.Tree.Beta && a.Order.Rank[0] == c.Order.Rank[0] && a.Order.Rank[1] == c.Order.Rank[1] {
		t.Fatal("different seeds produced identical randomness")
	}
}

func TestFacadeExactSampler(t *testing.T) {
	g := GridGraph(5, 5, 3, NewRNG(3))
	emb, err := SampleTreeExact(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeApproxMetric(t *testing.T) {
	g := RandomConnected(40, 90, 5, NewRNG(4))
	m, ratio, err := ApproxMetric(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1 {
		t.Fatalf("ratio %v below 1", ratio)
	}
	exact := ExactAPSP(g)
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if v == w {
				continue
			}
			if m.At(v, w) < exact.At(v, w)-1e-9 || m.At(v, w) > ratio*exact.At(v, w)+1e-9 {
				t.Fatalf("approx metric out of band at (%d,%d)", v, w)
			}
		}
	}
}

func TestFacadeSpanner(t *testing.T) {
	g := RandomConnected(60, 500, 5, NewRNG(5))
	s := Spanner(g, 2, 13)
	if s.M() >= g.M() {
		t.Fatal("spanner did not sparsify")
	}
	if !s.Connected() {
		t.Fatal("spanner disconnected")
	}
}

func TestFacadeKMedian(t *testing.T) {
	g := Clustered(3, 12, 150, NewRNG(6))
	res, err := SolveKMedian(g, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || res.Cost <= 0 {
		t.Fatalf("degenerate solution: %+v", res)
	}
	if res.Cost >= 150 {
		t.Fatalf("cost %v left a planted cluster unserved", res.Cost)
	}
}

func TestFacadeBuyAtBulk(t *testing.T) {
	g := GridGraph(5, 5, 2, NewRNG(7))
	demands := []Demand{{S: 0, T: 24, Amount: 10}, {S: 4, T: 20, Amount: 3}}
	cables := []CableType{{Capacity: 1, Cost: 1}, {Capacity: 20, Cost: 5}}
	sol, err := SolveBuyAtBulk(g, demands, cables, 19)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost <= 0 || len(sol.Purchases) == 0 {
		t.Fatal("degenerate buy-at-bulk solution")
	}
}

func TestFacadeMeasureStretch(t *testing.T) {
	g := RandomConnected(40, 100, 5, NewRNG(8))
	rng := NewRNG(23)
	stats, err := MeasureStretch(g,
		func() (*Embedding, error) { return SampleTree(g, rng.Uint64()) },
		3, 20, 29)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinRatio < 1-1e-9 {
		t.Fatalf("dominance violated: %v", stats.MinRatio)
	}
	if stats.AvgStretch < 1 {
		t.Fatalf("avg stretch %v", stats.AvgStretch)
	}
}

func TestFacadeEmbedderEnsemble(t *testing.T) {
	g := RandomConnected(40, 100, 5, NewRNG(9))
	e, err := NewEmbedder(g, 31)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := e.SampleEnsemble(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Trees) != 4 {
		t.Fatalf("got %d trees", len(ens.Trees))
	}
	stats := ens.Evaluate(g, 30, NewRNG(5))
	if !stats.DominanceOK {
		t.Fatal("ensemble under-estimated a distance")
	}
	if stats.AvgMinStretch < 1-1e-9 {
		t.Fatalf("avg min stretch %v below 1", stats.AvgMinStretch)
	}

	// The one-shot helper must agree with the explicit Embedder for the
	// same seed.
	ens2, err := SampleEnsemble(g, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ens.Trees {
		for v := 0; v < g.N(); v += 3 {
			for w := v + 1; w < g.N(); w += 5 {
				if ens.Trees[i].Dist(Node(v), Node(w)) != ens2.Trees[i].Dist(Node(v), Node(w)) {
					t.Fatal("SampleEnsemble disagrees with Embedder for the same seed")
				}
			}
		}
	}
}

func TestFacadeSnapshotRoundTrip(t *testing.T) {
	g := RandomConnected(36, 90, 5, NewRNG(21))
	ens, err := SampleEnsemble(g, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oracle.snap")
	meta := SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}
	if err := WriteSnapshotFile(path, ens, meta); err != nil {
		t.Fatal(err)
	}
	ens2, meta2, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != meta {
		t.Fatalf("meta %+v, want %+v", meta2, meta)
	}
	idx, err := ens.Index()
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := ens2.Index()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v += 2 {
		for w := v; w < g.N(); w += 3 {
			if idx.Min(Node(v), Node(w)) != idx2.Min(Node(v), Node(w)) {
				t.Fatalf("reloaded Min(%d,%d) differs", v, w)
			}
		}
	}

	// The buffer-level API and the hostile-input contract are reachable
	// from the facade too.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ens, meta); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(buf.Bytes()[:16]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestFacadeSteiner(t *testing.T) {
	g := GridGraph(6, 6, 2, NewRNG(31))
	terms := []Node{0, 5, 30, 35}
	res, err := SolveSteiner(g, terms, 32)
	if err != nil {
		t.Fatal(err)
	}
	base, err := SteinerBaseline(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight <= 0 || base.Weight <= 0 {
		t.Fatal("degenerate Steiner trees")
	}
	// Both are O(log n)-ish approximations of the same optimum; a wild
	// disagreement means one of the facade paths is broken.
	if res.Weight > 12*base.Weight || base.Weight > 12*res.Weight {
		t.Fatalf("embedding %v vs baseline %v implausibly far apart", res.Weight, base.Weight)
	}
}

func TestFacadeRouting(t *testing.T) {
	g := RandomConnected(60, 160, 5, NewRNG(33))
	tables, err := BuildRoutingTables(g, 3, 34)
	if err != nil {
		t.Fatal(err)
	}
	if tables.NumTrees() != 3 {
		t.Fatalf("tables hold %d trees, want 3", tables.NumTrees())
	}
	r, err := tables.Route(0, 59)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRoute(g, 0, 59, r); err != nil {
		t.Fatal(err)
	}
	cooked := &RouteResult{Path: r.Path, Length: r.Length / 2, Tree: r.Tree, TreeDist: r.TreeDist}
	if err := ValidateRoute(g, 0, 59, cooked); err == nil {
		t.Fatal("cooked route length accepted")
	}
}

func TestFacadeTreeIndex(t *testing.T) {
	g := RandomConnected(40, 100, 4, NewRNG(35))
	emb, err := SampleTree(g, 36)
	if err != nil {
		t.Fatal(err)
	}
	// A single tree is indexed as a one-tree ensemble.
	idx, err := (&Ensemble{Trees: []*Tree{emb.Tree}}).Index()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		u, w := Node(v), Node(g.N()-1-v)
		if got, want := idx.TreeDist(u, w, 0), emb.Tree.Dist(u, w); got != want {
			t.Fatalf("index Dist(%d,%d) = %v, walk says %v", u, w, got, want)
		}
	}
}
