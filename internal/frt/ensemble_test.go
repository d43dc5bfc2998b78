package frt

import (
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func TestEnsembleMinImprovesWithTrees(t *testing.T) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(50, 120, 6, rng)
	sampler := func() (*Embedding, error) { return SampleOnGraph(g, rng, nil) }
	small, err := sampleEnsemble(1, sampler)
	if err != nil {
		t.Fatal(err)
	}
	big, err := sampleEnsemble(8, sampler)
	if err != nil {
		t.Fatal(err)
	}
	evalRng := par.NewRNG(2)
	s1 := small.Evaluate(g, 40, evalRng)
	evalRng = par.NewRNG(2)
	s8 := big.Evaluate(g, 40, evalRng)
	if !s1.DominanceOK || !s8.DominanceOK {
		t.Fatal("ensemble under-estimated a distance")
	}
	if s8.AvgMinStretch >= s1.AvgMinStretch {
		t.Fatalf("8 trees (%.2f) did not improve over 1 tree (%.2f)", s8.AvgMinStretch, s1.AvgMinStretch)
	}
}

func TestEnsembleMinIsMinimum(t *testing.T) {
	rng := par.NewRNG(3)
	g := graph.GridGraph(5, 5, 3, rng)
	e, err := sampleEnsemble(4, func() (*Embedding, error) { return SampleOnGraph(g, rng, nil) })
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.Node(0); u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			min := e.Min(u, v)
			for _, tr := range e.Trees {
				if tr.Dist(u, v) < min {
					t.Fatal("Min is not the minimum")
				}
			}
			med := e.Median(u, v)
			if med < min {
				t.Fatal("median below minimum")
			}
		}
	}
}

func TestEnsembleMedianEvenOdd(t *testing.T) {
	rng := par.NewRNG(4)
	g := graph.PathGraph(10, 1)
	for _, count := range []int{3, 4} {
		e, err := sampleEnsemble(count, func() (*Embedding, error) { return SampleOnGraph(g, rng, nil) })
		if err != nil {
			t.Fatal(err)
		}
		m := e.Median(0, 9)
		lo, hi := e.Trees[0].Dist(0, 9), e.Trees[0].Dist(0, 9)
		for _, tr := range e.Trees {
			d := tr.Dist(0, 9)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		if m < lo || m > hi {
			t.Fatalf("median %v outside [%v, %v]", m, lo, hi)
		}
	}
}

// sampleEnsemble draws count embeddings via sampler, one at a time, into
// an Ensemble.
func sampleEnsemble(count int, sampler func() (*Embedding, error)) (*Ensemble, error) {
	e := &Ensemble{}
	for range count {
		emb, err := sampler()
		if err != nil {
			return nil, err
		}
		e.Trees = append(e.Trees, emb.Tree)
	}
	return e, nil
}

// leListsOnGraph is LEListsOnGraphBatch for one order.
func leListsOnGraph(g *graph.Graph, o *Order, tracker *par.Tracker) ([]semiring.DistMap, int) {
	lists, iters := LEListsOnGraphBatch(g, []*Order{o}, tracker)
	return lists[0], iters[0]
}
