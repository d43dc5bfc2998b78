package metric

import (
	"strings"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/simgraph"
)

func TestApproximateWithinGuarantee(t *testing.T) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(50, 120, 8, rng)
	res, err := Approximate(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := graph.APSPDijkstra(g)
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if v == w {
				continue
			}
			got, want := res.Matrix.At(v, w), exact.At(v, w)
			if got < want-1e-9 {
				t.Fatalf("(%d,%d): approximate %v below exact %v", v, w, got, want)
			}
			if got > res.MaxRatio*want+1e-9 {
				t.Fatalf("(%d,%d): approximate %v exceeds %v × exact %v", v, w, got, res.MaxRatio, want)
			}
		}
	}
	if res.MaxRatio > 1.5 {
		t.Fatalf("a-priori ratio %v not (1+o(1))-ish", res.MaxRatio)
	}
}

func TestApproximateIsAMetric(t *testing.T) {
	rng := par.NewRNG(2)
	g := graph.RandomConnected(40, 90, 5, rng)
	res, err := Approximate(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matrix.IsMetric(1e-6) {
		t.Fatal("approximate metric violates metric axioms")
	}
}

func TestApproximatePolylogIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("slow test: skipped with -short")
	}
	rng := par.NewRNG(3)
	g := graph.PathGraph(150, 1) // SPD(G) = 149
	res, err := Approximate(g, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 149 {
		t.Fatalf("oracle needed %d iterations, no better than SPD", res.Iterations)
	}
}

func TestApproximateSparseWithinGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("slow test: skipped with -short")
	}
	rng := par.NewRNG(4)
	g := graph.RandomConnected(60, 400, 6, rng)
	const k = 2
	res, err := ApproximateSparse(g, k, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := graph.APSPDijkstra(g)
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if v == w {
				continue
			}
			got, want := res.Matrix.At(v, w), exact.At(v, w)
			if got < want-1e-9 {
				t.Fatalf("(%d,%d): %v below exact %v", v, w, got, want)
			}
			if got > res.MaxRatio*want+1e-9 {
				t.Fatalf("(%d,%d): %v exceeds guarantee %v×%v", v, w, got, res.MaxRatio, want)
			}
		}
	}
}

func TestApproximateSparseDefaultK(t *testing.T) {
	rng := par.NewRNG(5)
	g := graph.RandomConnected(30, 100, 4, rng)
	res, err := ApproximateSparse(g, 0, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRatio < 3 {
		t.Fatalf("sparse guarantee %v should include spanner stretch ≥ 3", res.MaxRatio)
	}
	if !res.Matrix.IsMetric(1e-6) {
		t.Fatal("sparse approximate metric violates metric axioms")
	}
}

func TestApproximateTracksWork(t *testing.T) {
	rng := par.NewRNG(6)
	g := graph.RandomConnected(30, 70, 4, rng)
	tr := &par.Tracker{}
	if _, err := Approximate(g, rng, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Work() == 0 {
		t.Fatal("tracker not charged")
	}
}

// TestApproximateIterationCapIsLoud: on a long path two oracle iterations
// cannot reach the APSP fixpoint of H, so the run must fail naming the cap
// instead of returning the cut-off states. With the default cap the same H
// converges within it.
func TestApproximateIterationCapIsLoud(t *testing.T) {
	const n, capIters = 64, 2
	rng := par.NewRNG(7)
	g := graph.PathGraph(n, 1)
	h := simgraph.Build(hopset.DefaultSkeleton(g, rng, nil), 0, rng)
	if _, err := approximateOnH(h, capIters, nil); err == nil || !strings.Contains(err.Error(), "iteration cap 2") {
		t.Fatalf("capped metric run: error %v, want one naming the cap", err)
	}
	res, err := approximateOnH(h, simgraph.MaxIters(h.N()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > simgraph.MaxIters(h.N()) {
		t.Fatalf("%d iterations above the cap %d", res.Iterations, simgraph.MaxIters(h.N()))
	}
}
