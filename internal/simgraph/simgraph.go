// Package simgraph implements the simulated graph H of §4 of Friedrichs &
// Lenzen and the oracle of §5 that answers MBF-like queries on H without
// ever materialising it.
//
// Given G′ (the input graph augmented with a (d, ε̂)-hop set), H is the
// complete graph on V whose edge {v,w} has weight
//
//	ω_Λ({v,w}) = (1+ε̂)^{Λ−λ(v,w)} · dist^d(v,w,G′),
//
// where each node's level λ(v) is sampled geometrically (start at 0, raise
// with probability 1/2 per step), Λ is the maximum level, and λ(v,w) =
// min{λ(v), λ(w)}. High-level edges receive smaller penalties and therefore
// attract shortest paths; Lemmas 4.3/4.4 then bound every min-hop shortest
// path of H to O(log n) hops per level and O(log² n) hops overall
// (Theorem 4.5), while distances stay within (1+ε̂)^{Λ+1} of those of G.
//
// Explicitly constructing H would cost Ω(n²) work. Instead the oracle uses
// the decomposition of Lemma 5.1,
//
//	A_H = ⊕_{λ=0}^{Λ} P_λ A_λ^d P_λ,
//
// where P_λ projects onto nodes of level ≥ λ and A_λ is the adjacency
// matrix of G′ scaled by (1+ε̂)^{Λ−λ}: one MBF-like iteration on H becomes
// Λ+1 parallel runs of d filtered iterations on G′ (Equation 5.9),
// re-filtered and aggregated — which is valid precisely because filters are
// representative projections of congruence relations (Corollary 2.17).
//
// Every level run is a repair (mbf.Runner.RepairInPlace) of that level's
// last fixpoint of r∘A_λ: the one its run reached in the previous oracle
// iteration of Oracle.RunToFixpoint, or else the all-⊥ vector, a fixpoint of
// every r∘A_λ because the filters map ⊥ to ⊥. reseed folds the input into it
// at the nodes of level ≥ λ, and the nodes where that changed the state seed
// the repair. From ⊥ the seeds are the non-⊥ nodes of P_λ x, and the repair
// is exactly a fresh run from P_λ x; from a kept fixpoint it resumes where
// the previous oracle iteration left off. The resumption is exact for two
// reasons. A_H has the identity on its diagonal, so the oracle states only
// grow in the congruence order (x_t ≡ x_t ⊕ x_{t−1}), and Corollary 2.17
// lets r commute with ⊕ and A_λ. Iterate and Run start every level from ⊥
// and are the reference the resumed runs are tested against.
//
// Each level run is semi-naive inside as well, down to single entries (the
// absorption argument is in the mbf package doc). It merges a whole
// neighbourhood only at the seeds and only in its first iteration;
// everywhere else it merges only what the seeds, and later the changed
// neighbours, added to their lists (semiring.StaircaseModule's Diff; whole
// lists under DistMapModule). That is exact because every node that was not
// seeded satisfies its level's fixpoint equation over the seeds' states
// before reseed, which is RepairInPlace's contract.
package simgraph

import (
	"iter"
	"math"
	"slices"
	"sync"

	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// H is the implicit simulated graph.
type H struct {
	// Hop is the underlying (d, ε̂)-hop-set result; Hop.Graph is G′.
	Hop *hopset.Result
	// Level[v] is λ(v).
	Level []int
	// Lambda is Λ, the maximum sampled level.
	Lambda int
	// EpsHat is the penalty base ε̂ of the level weights ω_Λ.
	EpsHat float64
	// scale[λ] caches (1+ε̂)^{Λ−λ}.
	scale []float64
}

// DefaultEpsHat returns the penalty base used when the caller passes 0:
// ε̂ = 1/⌈log₂ n⌉², which keeps the accumulated stretch
// (1+ε̂)^{Λ+1} ⊆ 1 + O(1/log n) (Equation 4.16).
func DefaultEpsHat(n int) float64 {
	l := math.Ceil(math.Log2(float64(n) + 2))
	return 1 / (l * l)
}

// Build samples levels for the nodes of the hop-set graph and assembles the
// implicit simulated graph. epsHat = 0 selects DefaultEpsHat; a negative
// epsHat disables the level penalty entirely (all scales 1) — this breaks
// the premises of Lemmas 4.3/4.4 and is provided only for the ablation
// experiment A2, which measures how SPD(H) degrades without the penalty.
func Build(hs *hopset.Result, epsHat float64, rng *par.RNG) *H {
	n := hs.Graph.N()
	if epsHat == 0 {
		epsHat = DefaultEpsHat(n)
	} else if epsHat < 0 {
		epsHat = 0 // no penalty: (1+0)^{Λ−λ} = 1 for every level
	}
	level := make([]int, n)
	lambda := 0
	for v := range level {
		level[v] = rng.Geometric(0.5)
		if level[v] > lambda {
			lambda = level[v]
		}
	}
	h := &H{Hop: hs, Level: level, Lambda: lambda, EpsHat: epsHat}
	h.scale = make([]float64, lambda+1)
	for l := 0; l <= lambda; l++ {
		h.scale[l] = math.Pow(1+epsHat, float64(lambda-l))
	}
	return h
}

// N returns the number of nodes of H.
func (h *H) N() int { return len(h.Level) }

// EdgeLevel returns λ(v,w) = min{λ(v), λ(w)}.
func (h *H) EdgeLevel(v, w graph.Node) int {
	lv, lw := h.Level[v], h.Level[w]
	if lw < lv {
		return lw
	}
	return lv
}

// EdgeWeight returns ω_Λ({v,w}) (Equation 4.2), computing dist^d(v,w,G′) on
// demand. It is intended for tests and spot checks — sweeping all pairs
// costs the Ω(n²) work the oracle exists to avoid.
func (h *H) EdgeWeight(v, w graph.Node) float64 {
	if v == w {
		return 0
	}
	d := graph.HopLimitedDistance(h.Hop.Graph, v, w, h.Hop.D)
	if semiring.IsInf(d) {
		return semiring.Inf
	}
	return h.scale[h.EdgeLevel(v, w)] * d
}

// Materialize constructs H explicitly as a weighted graph — Θ(n·d·m) work —
// for validation experiments (E2/E3) on small inputs.
func (h *H) Materialize() *graph.Graph {
	n := h.N()
	gp := h.Hop.Graph
	out := graph.NewBuilder(n)
	rows := make([][]float64, n)
	par.ForEach(n, func(v int) {
		rows[v] = graph.BellmanFord(gp, graph.Node(v), h.Hop.D)
	})
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			d := rows[v][w]
			if semiring.IsInf(d) {
				continue
			}
			out.Add(graph.Node(v), graph.Node(w), h.scale[h.EdgeLevel(graph.Node(v), graph.Node(w))]*d)
		}
	}
	return out.Freeze()
}

// Oracle answers MBF-like queries on H over the distance-map semimodule D
// (Theorem 5.2). It is safe for sequential reuse across queries but NOT for
// concurrent use: the level runner (and its scratch pools) cached on the
// oracle is reconfigured by every Iterate/RunToFixpoint call. Use one
// Oracle per goroutine, as the Embedder does.
type Oracle struct {
	H       *H
	Tracker *par.Tracker

	// Module aggregates the level runs' neighbourhoods and the cross-level
	// fold of Equation 5.9, mirroring mbf.Runner.Module. Nil means
	// semiring.DistMapModule. semiring.StaircaseModule fuses the staircase
	// projection into the merge; it is exact only when the filter passed
	// to Iterate/Run/RunToFixpoint absorbs it (r∘Staircase = r), as
	// Staircase itself does on rank-keyed lists (see StaircaseFixpoint).
	Module semiring.Aggregator[float64, semiring.DistMap]

	// FilterInPlace is ignored: every filter is pure (semiring.Filter), so
	// the oracle applies the filter argument everywhere.
	//
	// Deprecated: kept only so existing callers that set it still compile.
	FilterInPlace semiring.Filter[semiring.DistMap]

	// scratch recycles the per-worker buffers of the cross-level merge of
	// Equation 5.9.
	scratch sync.Pool // *levelScratch
	// runner is the one runner of the level runs, built lazily and keyed
	// to runnerH so swapping the H field rebuilds it. The level runs are
	// sequential, so they share it (levelRunner points its Weight at
	// weights[λ]), and with it one set of the sparse engine's pooled
	// scratch. Keeping it alive across oracle iterations — a fixpoint run
	// performs O(log² n) of them over Λ+1 levels — lets those pools
	// actually recycle; per-call fields (Module, Filter, Tracker) are
	// refreshed on every use.
	runner  *mbf.Runner[float64, semiring.DistMap]
	weights []func(_, _ graph.Node, w float64) float64
	runnerH *H
}

// levelRunner returns the level runs' runner, weighted for level λ: every
// arc of G′ scaled by (1+ε̂)^{Λ−λ}.
func (o *Oracle) levelRunner(lambda int) *mbf.Runner[float64, semiring.DistMap] {
	h := o.H
	if o.runnerH != h {
		o.runner = &mbf.Runner[float64, semiring.DistMap]{
			Graph: h.Hop.Graph,
			Size:  func(m semiring.DistMap) int { return m.Len() + 1 },
		}
		o.weights = make([]func(_, _ graph.Node, w float64) float64, h.Lambda+1)
		for l := range o.weights {
			scale := h.scale[l]
			o.weights[l] = func(_, _ graph.Node, w float64) float64 { return scale * w }
		}
		o.runnerH = h
	}
	o.runner.Weight = o.weights[lambda]
	return o.runner
}

// levelScratch is one worker's reusable state for the ⊕_λ aggregation.
type levelScratch struct {
	terms []semiring.Term[float64, semiring.DistMap]
	sc    semiring.Scratch
}

// warmStart is what an oracle iteration carries to the next. It lives for
// a single RunToFixpoint call; Iterate makes a fresh one per call.
type warmStart struct {
	// fix[λ] is level λ's unprojected result from the previous oracle
	// iteration if that run ended with an empty frontier — a true fixpoint
	// of r∘A_λ — and nil otherwise, which stands for the all-⊥ fixpoint.
	fix [][]semiring.DistMap
	// changed lists the nodes whose state the previous oracle iteration
	// changed, in ascending order. It is read only where fix is kept.
	changed []graph.Node
	// seeds and old are reseed's output buffers, reused by every level run.
	seeds []graph.Node
	old   []semiring.DistMap
}

func (o *Oracle) newWarmStart() *warmStart {
	return &warmStart{fix: make([][]semiring.DistMap, o.H.Lambda+1)}
}

// NewOracle returns an oracle for H charging work/depth to tracker (which
// may be nil).
func NewOracle(h *H, tracker *par.Tracker) *Oracle {
	return &Oracle{H: h, Tracker: tracker}
}

// StaircaseFixpoint runs the oracle on H to its fixpoint from the keyed
// singletons semiring.SingletonStatesKeyed(key) under the semiring.Staircase
// projection, aggregating through semiring.StaircaseModule, and returns
// RunToFixpoint's lists and iteration count. With key[v] the rank of v in a
// random order this is the LE-list fixpoint of Definition 7.3 on rank-keyed
// lists: the oracle's share of an FRT draw (frt.Embedder), and the one
// configuration its benchmarks and tests replay.
func StaircaseFixpoint(h *H, key []semiring.NodeID, tracker *par.Tracker, maxIters int) ([]semiring.DistMap, int) {
	o := &Oracle{H: h, Tracker: tracker, Module: semiring.StaircaseModule{}}
	return o.RunToFixpoint(semiring.SingletonStatesKeyed(key), semiring.Staircase, maxIters)
}

// Iterate simulates one MBF-like iteration on H:
//
//	x ↦ r^V ( ⊕_{λ=0}^{Λ} P_λ (r^V A_λ)^d P_λ x )
//
// (Equation 5.9). filter must be a representative projection of a
// congruence relation on D that maps ⊥ to ⊥; Corollary 2.17 guarantees the
// result equals the unfiltered iteration r^V(A_H x). Every call gets a fresh
// warm state, so every level runs from ⊥ (a fresh run from P_λ x), which
// makes Iterate and Run the reference RunToFixpoint is tested against.
func (o *Oracle) Iterate(x []semiring.DistMap, filter semiring.Filter[semiring.DistMap]) []semiring.DistMap {
	return o.iterate(x, filter, o.newWarmStart())
}

// iterate runs every level from its warm start in ws (see runLevel) and
// folds the results; the last level's fold pass records in ws.changed every
// node whose new state differs from x — the fixpoint test fused into the
// pass that already owns the data.
//
// The Λ+1 level runs are independent (they would execute in parallel in the
// PRAM formulation), so each charges its own branch of o.Tracker.Fork, and
// the oracle iteration charges one phase with the summed work and the depth
// of the deepest level.
func (o *Oracle) iterate(x []semiring.DistMap, filter semiring.Filter[semiring.DistMap], ws *warmStart) []semiring.DistMap {
	h := o.H
	n := len(x)
	trackers, join := o.Tracker.Fork(h.Lambda + 1)
	changed := make([]bool, n)
	// ⊕_λ is folded incrementally into acc, its own vector, which level 0
	// fills (P_0 is the identity) and every later level λ updates at its
	// nodes of level ≥ λ, its outer P_λ. Filtering between partial merges is
	// exact, not an approximation: a representative projection satisfies
	// r(r(a⊕b)⊕c) = r(a⊕b⊕c) (Lemma 2.16 / Corollary 2.17), so the folded
	// result equals the one-shot (Λ+1)-way merge entry for entry, and a level
	// run's output is already filtered. The fold order λ = 0, 1, …, Λ is
	// fixed, keeping the output deterministic at any parallel width.
	agg := o.Module
	if agg == nil {
		agg = semiring.DistMapModule{}
	}
	acc := make([]semiring.DistMap, n)
	for lambda := 0; lambda <= h.Lambda; lambda++ {
		runner := o.levelRunner(lambda)
		runner.Module = agg
		runner.Filter = filter
		runner.Tracker = trackers[lambda]
		y := o.runLevel(runner, x, filter, lambda, ws)
		final := lambda == h.Lambda
		// One pooled scratch per chunk, not per node (the rule of
		// mbf.Runner.getIter).
		par.ForEachChunk(n, func(start, end int) {
			st, _ := o.scratch.Get().(*levelScratch)
			if st == nil {
				st = new(levelScratch)
			}
			terms := st.terms[:0]
			for v := start; v < end; v++ {
				switch {
				case lambda == 0:
					acc[v] = y[v]
				case h.Level[v] >= lambda:
					// acc[v] goes in as self: a module may then hand it
					// back uncopied when level λ adds nothing to it.
					terms = append(terms[:0], semiring.Term[float64, semiring.DistMap]{X: y[v]})
					acc[v] = agg.Aggregate(&st.sc, acc[v], terms, filter)
				}
				if final {
					changed[v] = !agg.Equal(acc[v], x[v])
				}
			}
			clear(terms) // drop state references so the pool cannot pin them
			st.terms = terms[:0]
			o.scratch.Put(st)
		})
	}
	join()
	ws.changed = ws.changed[:0]
	for v, c := range changed {
		if c {
			ws.changed = append(ws.changed, graph.Node(v))
		}
	}
	return acc
}

// runLevel returns (r^V A_λ)^d P_λ x, level λ's term of Equation 5.9 before
// its outer P_λ, through the frontier-driven sparse fixpoint engine: once
// the filtered states stop changing, the remaining iterations up to d are
// identities, so the result is exactly the d-iteration product, and late
// sparse iterations re-aggregate only the nodes still in motion. This inner
// loop is the hot path of Embedder builds.
//
// The run repairs level λ's last fixpoint: ws.fix[λ], reseeded at the nodes
// the previous oracle iteration changed (the exactness argument is on
// RunToFixpoint), or, when there is none, a fresh all-⊥ vector reseeded at
// every node, which makes the repair a fresh run from P_λ x. The result is
// kept in ws.fix only when its run provably ended with an empty frontier: a
// run that used all d iterations may have stopped short of its fixpoint, so
// the level starts from ⊥ again next time.
func (o *Oracle) runLevel(runner *mbf.Runner[float64, semiring.DistMap], x []semiring.DistMap, filter semiring.Filter[semiring.DistMap], lambda int, ws *warmStart) []semiring.DistMap {
	d := o.H.Hop.D
	fix, nodes := ws.fix[lambda], slices.Values(ws.changed)
	if fix == nil {
		fix, nodes = make([]semiring.DistMap, len(x)), allNodes(len(x))
	}
	ws.fix[lambda] = fix
	ws.seeds, ws.old = o.reseed(fix, x, nodes, lambda, filter, ws.seeds[:0], ws.old[:0])
	if len(ws.seeds) > 0 {
		// reseed wrote fix in place, so the repair steps it from there.
		if _, it := runner.RepairInPlace(fix, ws.seeds, ws.old, d); it >= d {
			ws.fix[lambda] = nil
		}
	}
	clear(ws.old) // drop the old states so the buffer cannot pin them
	return fix
}

// allNodes yields every node of an n-node graph: the nodes at which a
// fresh ⊥ vector differs from the input it starts from.
func allNodes(n int) iter.Seq[graph.Node] {
	return func(yield func(graph.Node) bool) {
		for v := range n {
			if !yield(graph.Node(v)) {
				return
			}
		}
	}
}

// reseed turns level λ's last fixpoint into the warm start for input x: at
// every node v of nodes with level ≥ λ it sets fix[v] = r(fix[v] ⊕ x[v]), in
// place, and appends to seeds and old the nodes where that altered fix —
// exactly the seed frontier the sparse engine needs — and their states
// before the change.
// nodes must hold every node whose input differs from what fix absorbed:
// every node for a fresh ⊥ vector, the changed nodes for a kept fixpoint,
// whose other nodes have the same projected input as last time, which fix
// already absorbs through A_λ's identity diagonal.
func (o *Oracle) reseed(fix, x []semiring.DistMap, nodes iter.Seq[graph.Node], lambda int, filter semiring.Filter[semiring.DistMap], seeds []graph.Node, old []semiring.DistMap) ([]graph.Node, []semiring.DistMap) {
	var agg semiring.DistMapModule
	for v := range nodes {
		if o.H.Level[v] < lambda {
			continue
		}
		if b := filter(agg.Add(fix[v], x[v])); !agg.Equal(b, fix[v]) {
			seeds, old = append(seeds, v), append(old, fix[v])
			fix[v] = b
		}
	}
	return seeds, old
}

// Run performs iters MBF-like iterations on H starting from x0, each an
// Iterate: every level runs from ⊥.
func (o *Oracle) Run(x0 []semiring.DistMap, filter semiring.Filter[semiring.DistMap], iters int) []semiring.DistMap {
	x := make([]semiring.DistMap, len(x0))
	for i, s := range x0 {
		x[i] = filter(s)
	}
	for i := 0; i < iters; i++ {
		x = o.Iterate(x, filter)
	}
	return x
}

// RunToFixpoint iterates on H until the filtered states stop changing or
// maxIters is hit, returning the states and the number of iterations
// performed — including the final iteration that confirms the fixpoint.
// A run the cap cuts off returns maxIters+1: its last iteration still
// changed some state, so the fixpoint needs at least one more, and a caller
// tells a capped run by a count above its cap.
// Since SPD(H) ∈ O(log² n) w.h.p. (Theorem 4.5), the fixpoint arrives after
// polylogarithmically many oracle iterations. Change detection is fused
// into the cross-level merge pass (no separate vector comparison), and the
// per-level inner loops run on the sparse frontier engine.
//
// The level runs are semi-naive: from the second oracle iteration on, a
// level whose previous run reached a fixpoint y of r∘A_λ resumes from y
// instead of from ⊥. At each changed node v of level ≥ λ the start state
// becomes r(y[v] ⊕ x[v]), and only the nodes where that differs from y seed
// the frontier; a level with no seeds costs no runner work at all. The
// repair (mbf.Runner.RepairInPlace, handed the seeds' states from before
// reseed) merges the seeds' whole neighbourhoods in its first iteration and
// everywhere else only what reseed added to them, the entries of
// r(y[v] ⊕ x[v]) missing from y[v]: every other node of y is still a
// fixpoint over the old seed states, so that is all it lacks. A level
// without a fixpoint repairs the all-⊥ vector the same way, which is a
// fresh run from P_λ x. The states and the iteration count equal those of
// Run node for node. Two facts
// make this exact. A_H has the identity on its diagonal, so successive
// oracle states satisfy x_t ≡ x_t ⊕ x_{t−1} and P_λ x_t ≡ P_λ x_t ⊕ P_λ x_{t−1}.
// And r is the representative projection of a congruence (Lemma 7.5 for
// the LE filter), so Corollary 2.17 lets it commute with ⊕ and A_λ; with
// y ≡ A_λ^d P_λ x_{t−1} a fixpoint,
//
//	r(A_λ^d (y ⊕ P_λ x_t)) = r(y ⊕ A_λ^d P_λ x_t) = r(A_λ^d P_λ x_t).
//
// A level result is reused only after a true fixpoint: a run that used all
// d hops starts from ⊥ again in the next iteration. The warm state is
// created on entry and dropped on return, so the oracle stays safe for
// sequential reuse; it keeps one state vector per level.
func (o *Oracle) RunToFixpoint(x0 []semiring.DistMap, filter semiring.Filter[semiring.DistMap], maxIters int) ([]semiring.DistMap, int) {
	x := make([]semiring.DistMap, len(x0))
	for i, s := range x0 {
		x[i] = filter(s)
	}
	ws := o.newWarmStart()
	for it := 1; it <= maxIters; it++ {
		x = o.iterate(x, filter, ws)
		if len(ws.changed) == 0 {
			return x, it
		}
	}
	return x, maxIters + 1
}

// MaxIters returns the default iteration cap 4·(⌈log₂ n⌉+1)², comfortably
// above the O(log² n) w.h.p. bound on SPD(H) of Theorem 4.5.
func MaxIters(n int) int {
	l := int(math.Ceil(math.Log2(float64(n)+2))) + 1
	return 4 * l * l
}
