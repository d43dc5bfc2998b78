package frt

import (
	"fmt"

	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/simgraph"
)

// Embedder runs the tree-independent stages of the Theorem 7.9 pipeline —
// hop-set construction, the simulated graph H, and its oracle — exactly once
// per graph, and then draws any number of FRT trees against them. The only
// randomness a tree needs is its node order and scale β (§7.1 steps 1–2), so
// an ensemble of K trees shares one pipeline instead of rebuilding it K
// times, and the K oracle fixpoint computations run concurrently.
//
// This is the intended use of the paper's headline result: "repeating the
// process log(ε⁻¹) times and taking the best result" (§1) amortises the
// hop-set and H construction across all repetitions.
//
// The Embedder's own methods are not safe for concurrent use (they advance
// the embedder's RNG); a single SampleEnsemble call parallelises internally.
type Embedder struct {
	g    *graph.Graph
	opts Options
	h    *simgraph.H
	// maxIters caps each tree's oracle fixpoint (simgraph.MaxIters).
	maxIters int
}

// NewEmbedder validates opts, consumes randomness from opts.RNG for the
// shared stages (hop-set sampling and H's node levels), and returns an
// embedder ready to draw trees. The per-graph cost is paid here; each
// subsequent tree costs only one oracle fixpoint computation.
func NewEmbedder(g *graph.Graph, opts Options) (*Embedder, error) {
	if opts.RNG == nil {
		return nil, fmt.Errorf("frt: Options.RNG is required")
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("frt: empty graph")
	}

	var hs *hopset.Result
	switch opts.HopSet {
	case HopSetSkeleton:
		hs = hopset.DefaultSkeleton(g, opts.RNG, opts.Tracker)
	case HopSetLandmark:
		hs = hopset.Landmark(g, 2*ceilLog2(n), opts.RNG, opts.Tracker)
	case HopSetNone:
		hs = hopset.None(g)
	default:
		return nil, fmt.Errorf("frt: unknown hop set kind %d", opts.HopSet)
	}

	h := simgraph.Build(hs, 0, opts.RNG)
	return &Embedder{g: g, opts: opts, h: h, maxIters: simgraph.MaxIters(n)}, nil
}

// H returns the shared simulated graph.
func (e *Embedder) H() *simgraph.H { return e.h }

// Graph returns the input graph.
func (e *Embedder) Graph() *graph.Graph { return e.g }

// sampleWith draws one tree using rng for the per-tree randomness (order and
// β) and charging work/depth to tracker.
func (e *Embedder) sampleWith(rng *par.RNG, tracker *par.Tracker) (*Embedding, error) {
	n := e.g.N()
	order := NewOrder(n, rng)
	beta := RandomBeta(rng)
	rk := order.MustKeys(n)
	// Each sample binds a fresh oracle to its own tracker (ensemble sampling
	// charges a private per-tree tracker so the shared tracker can record
	// max-depth, not summed depth). Only H is shared state. The fixpoint
	// runs on rank-keyed lists, where the LE filter is the Staircase scan
	// and every aggregation prunes as it merges (semiring.StaircaseModule),
	// and the tree is read off them directly (see the package doc).
	lists, iters := simgraph.StaircaseFixpoint(e.h, rk.Key, tracker, e.maxIters)
	if iters > e.maxIters {
		// Lists cut off before their fixpoint need not be LE lists.
		return nil, fmt.Errorf("frt: oracle fixpoint not reached within the iteration cap %d", e.maxIters)
	}
	tree, err := buildTreeRanked(lists, rk, beta)
	if err != nil {
		return nil, err
	}
	return &Embedding{Tree: tree, Order: order, Iterations: iters}, nil
}

// Sample draws one tree against the shared pipeline, advancing the
// embedder's RNG.
func (e *Embedder) Sample() (*Embedding, error) {
	return e.sampleWith(e.opts.RNG, e.opts.Tracker)
}

// SampleEmbeddings draws count independent trees concurrently against the
// shared pipeline. The per-tree RNGs are split off the embedder's RNG
// sequentially before the parallel loop and results land at fixed indices,
// so a fixed seed yields the identical ensemble for every par.MaxProcs
// setting — parallelism never changes the sampled distribution's outcome.
//
// When a Tracker is configured, each tree charges a private tracker; the
// shared tracker receives the summed work and the maximum per-tree depth,
// matching the DAG cost model's account of a parallel phase (§1.2).
func (e *Embedder) SampleEmbeddings(count int) ([]*Embedding, error) {
	if count < 1 {
		return nil, fmt.Errorf("frt: ensemble needs ≥ 1 tree")
	}
	rngs := e.opts.RNG.SplitN(count)
	var trackers []*par.Tracker
	if e.opts.Tracker != nil {
		trackers = make([]*par.Tracker, count)
		for i := range trackers {
			trackers[i] = &par.Tracker{}
		}
	}
	embs := make([]*Embedding, count)
	errs := make([]error, count)
	par.ForEach(count, func(i int) {
		var tr *par.Tracker
		if trackers != nil {
			tr = trackers[i]
		}
		embs[i], errs[i] = e.sampleWith(rngs[i], tr)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if trackers != nil {
		var work, depth int64
		for _, tr := range trackers {
			work += tr.Work()
			if d := tr.Depth(); d > depth {
				depth = d
			}
		}
		e.opts.Tracker.AddPhase(work, depth)
	}
	return embs, nil
}

// SampleEnsemble draws count independent trees concurrently and returns them
// as an Ensemble (the min-over-trees distance oracle of §1).
func (e *Embedder) SampleEnsemble(count int) (*Ensemble, error) {
	embs, err := e.SampleEmbeddings(count)
	if err != nil {
		return nil, err
	}
	ens := &Ensemble{Trees: make([]*Tree, count)}
	for i, emb := range embs {
		ens.Trees[i] = emb.Tree
	}
	return ens, nil
}
