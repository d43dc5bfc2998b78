package frt

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/simgraph"
)

// ensembleBytes serialises every tree of the ensemble into one byte stream,
// the canonical form used to assert that two ensembles are identical.
func ensembleBytes(t *testing.T, e *Ensemble) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range e.Trees {
		if err := WriteTree(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestEmbedderDeterministicAcrossMaxProcs is the seed-determinism contract:
// a fixed seed must yield a byte-identical ensemble no matter how wide the
// parallel execution is, because per-tree RNGs are split off sequentially
// before the parallel loop.
func TestEmbedderDeterministicAcrossMaxProcs(t *testing.T) {
	genRNG := par.NewRNG(7)
	g := graph.RandomConnected(56, 168, 8, genRNG)

	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	var want []byte
	for _, procs := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		par.MaxProcs = procs
		e, err := NewEmbedder(g, Options{RNG: par.NewRNG(42)})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := e.SampleEnsemble(5)
		if err != nil {
			t.Fatal(err)
		}
		got := ensembleBytes(t, ens)
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("MaxProcs=%d: ensemble differs from MaxProcs=1", procs)
		}
	}
}

// TestEmbedderSampleMatchesSampleWrapper checks that the one-shot Sample is
// really a thin wrapper: same seed, same tree.
func TestEmbedderSampleMatchesSampleWrapper(t *testing.T) {
	g := graph.RandomConnected(60, 150, 6, par.NewRNG(9))
	direct, err := Sample(g, Options{RNG: par.NewRNG(5)})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEmbedder(g, Options{RNG: par.NewRNG(5)})
	if err != nil {
		t.Fatal(err)
	}
	viaEmbedder, err := e.Sample()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteTree(&a, direct.Tree); err != nil {
		t.Fatal(err)
	}
	if err := WriteTree(&b, viaEmbedder.Tree); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Sample and Embedder.Sample disagree for the same seed")
	}
}

// TestEnsembleDominance asserts the one-sided oracle guarantee on random
// graphs: Min(u,v) ≥ dist_G(u,v) for every pair (Definition 7.1 plus the
// doubled-edge-weight construction of BuildTree).
func TestEnsembleDominance(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rng := par.NewRNG(seed)
		g := graph.RandomConnected(48, 140, 7, rng)
		e, err := NewEmbedder(g, Options{RNG: rng})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := e.SampleEnsemble(4)
		if err != nil {
			t.Fatal(err)
		}
		exact := graph.APSPDijkstra(g)
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				est := ens.Min(graph.Node(u), graph.Node(v))
				if d := exact.At(u, v); est < d-1e-9 {
					t.Fatalf("seed %d: Min(%d,%d)=%v under-estimates dist %v", seed, u, v, est, d)
				}
			}
		}
	}
}

// TestEnsembleMonotoneTightening asserts that Min is non-increasing as trees
// are added: every prefix ensemble's estimate is an upper bound on the next
// prefix's.
func TestEnsembleMonotoneTightening(t *testing.T) {
	rng := par.NewRNG(11)
	g := graph.RandomConnected(40, 100, 5, rng)
	e, err := NewEmbedder(g, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := e.SampleEnsemble(8)
	if err != nil {
		t.Fatal(err)
	}
	pairRNG := par.NewRNG(12)
	for p := 0; p < 50; p++ {
		u := graph.Node(pairRNG.Intn(g.N()))
		v := graph.Node(pairRNG.Intn(g.N()))
		if u == v {
			continue
		}
		prev := math.Inf(1)
		for k := 1; k <= len(ens.Trees); k++ {
			prefix := &Ensemble{Trees: ens.Trees[:k]}
			cur := prefix.Min(u, v)
			if cur > prev+1e-12 {
				t.Fatalf("Min(%d,%d) rose from %v to %v at %d trees", u, v, prev, cur, k)
			}
			prev = cur
		}
	}
}

// TestEvaluateParallelMatchesSequential pins the parallel Evaluate to the
// sequential reference on the same pair set.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	rng := par.NewRNG(21)
	g := graph.RandomConnected(50, 130, 6, rng)
	e, err := NewEmbedder(g, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := e.SampleEnsemble(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	par.MaxProcs = 1
	seq := ens.Evaluate(g, 60, par.NewRNG(33))
	par.MaxProcs = 4
	parl := ens.Evaluate(g, 60, par.NewRNG(33))
	if seq.Pairs != parl.Pairs || seq.DominanceOK != parl.DominanceOK {
		t.Fatalf("pair accounting differs: %+v vs %+v", seq, parl)
	}
	if math.Abs(seq.AvgMinStretch-parl.AvgMinStretch) > 1e-9 {
		t.Fatalf("AvgMinStretch differs: %v vs %v", seq.AvgMinStretch, parl.AvgMinStretch)
	}
	if seq.MaxMinStretch != parl.MaxMinStretch {
		t.Fatalf("MaxMinStretch differs: %v vs %v", seq.MaxMinStretch, parl.MaxMinStretch)
	}
}

// TestEmbedderTrackerChargesParallelPhase checks the ensemble's cost
// accounting: total work grows with the tree count while the charged depth
// is the maximum over trees, not their sum.
func TestEmbedderTrackerChargesParallelPhase(t *testing.T) {
	rng := par.NewRNG(17)
	g := graph.RandomConnected(40, 100, 5, rng)

	one := &par.Tracker{}
	e1, err := NewEmbedder(g, Options{RNG: par.NewRNG(3), Tracker: one})
	if err != nil {
		t.Fatal(err)
	}
	setup := one.Work() // hop set + H construction
	if _, err := e1.SampleEmbeddings(1); err != nil {
		t.Fatal(err)
	}
	perTreeWork := one.Work() - setup
	perTreeDepth := one.Depth()

	many := &par.Tracker{}
	e8, err := NewEmbedder(g, Options{RNG: par.NewRNG(3), Tracker: many})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e8.SampleEmbeddings(8); err != nil {
		t.Fatal(err)
	}
	if w := many.Work() - setup; w < 4*perTreeWork {
		t.Fatalf("8-tree work %d implausibly small vs single-tree %d", w, perTreeWork)
	}
	if d := many.Depth(); d > 4*perTreeDepth {
		t.Fatalf("8-tree depth %d looks summed, not maxed (single-tree %d)", d, perTreeDepth)
	}
}

func TestEmbedderRejectsBadInput(t *testing.T) {
	g := graph.PathGraph(4, 1)
	if _, err := NewEmbedder(g, Options{}); err == nil {
		t.Fatal("nil RNG accepted")
	}
	if _, err := NewEmbedder(graph.New(0), Options{RNG: par.NewRNG(1)}); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := NewEmbedder(g, Options{RNG: par.NewRNG(1), HopSet: HopSetKind(99)}); err == nil {
		t.Fatal("unknown hop set accepted")
	}
	e, err := NewEmbedder(g, Options{RNG: par.NewRNG(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SampleEnsemble(0); err == nil {
		t.Fatal("zero-tree ensemble accepted")
	}
}

// TestIterationCapIsLoud: on a long path two oracle iterations cannot reach
// the LE-list fixpoint. The oracle must then report cap+1, not the cap, and
// the Embedder must refuse to build a tree from the cut-off lists, naming
// the cap. With the default cap the same draw succeeds within it.
func TestIterationCapIsLoud(t *testing.T) {
	const n, capIters = 64, 2
	emb, err := NewEmbedder(graph.PathGraph(n, 1), Options{RNG: par.NewRNG(5)})
	if err != nil {
		t.Fatal(err)
	}
	rk := NewOrder(n, par.NewRNG(6)).MustKeys(n)
	if _, it := simgraph.StaircaseFixpoint(emb.H(), rk.Key, nil, capIters); it != capIters+1 {
		t.Fatalf("capped oracle run returned %d iterations, want cap+1 = %d", it, capIters+1)
	}
	emb.maxIters = capIters
	if _, err := emb.Sample(); err == nil || !strings.Contains(err.Error(), "iteration cap 2") {
		t.Fatalf("capped Embedder draw: error %v, want one naming the cap", err)
	}
	emb.maxIters = simgraph.MaxIters(n)
	e, err := emb.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if e.Iterations > simgraph.MaxIters(n) {
		t.Fatalf("%d iterations above the cap %d", e.Iterations, simgraph.MaxIters(n))
	}
}
