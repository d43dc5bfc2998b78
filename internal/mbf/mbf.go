// Package mbf implements the generic Moore-Bellman-Ford-like algorithm
// engine of §2 of Friedrichs & Lenzen, together with the algorithm zoo of §3
// built on top of it. The routing tables of §7.5 (RoutingTables,
// RoutingTablesTo) are a min-plus distance-map fixpoint plus one pass that
// derives each entry's next hop from the exact distances (Routes); no
// second algebra carries hops through the iterations.
//
// An MBF-like algorithm is a triple (semimodule over a semiring, congruence
// relation with representative projection r, initial state vector x(0)); h
// iterations compute r^V A^h x(0), where A is the graph's adjacency matrix
// over the semiring (Definition 2.11). One iteration is
//
//	x'(v) = r( ⊕_{w ∈ V} a_{vw} ⊙ x(w) )
//	      = r( x(v) ⊕ ⊕_{{v,w} ∈ E} a_{vw} ⊙ x(w) ),
//
// since the adjacency matrix carries the multiplicative identity on its
// diagonal (each node keeps its own state) and the semiring zero for
// non-edges (nothing propagates). Corollary 2.17 (r^V ∼ id) lets the engine
// filter after every iteration without changing the output; this is what
// keeps intermediate states small and the work near-linear.
//
// # Frontier-driven sparse fixpoint engine
//
// Fixpoint loops (r^V A x iterated until the states stop changing, which
// happens after at most SPD(G) hops for the distance algebras) spend their
// late iterations re-deriving states that are already stable: x'(v) depends
// only on x at v and at v's neighbors, so if none of those states changed in
// the previous iteration, recomputing v reproduces x(v) exactly. Every
// fixpoint driver of the Runner — RunToFixpoint, RepairInPlace and the
// step-wise Stepper — runs one sparse loop that exploits this with change
// propagation:
//
//   - the frontier after an iteration is the set of nodes whose filtered
//     state changed in that iteration;
//   - the next iteration re-aggregates only the affected nodes — every
//     frontier node (its own state feeds its next state through the
//     diagonal) plus every node with a frontier node among its
//     in-neighbors, which are its graph.Graph.Neighbors because graphs are
//     undirected (§1.2);
//   - all other nodes keep their state, untouched.
//
// A fresh run seeds the frontier with the nodes whose filtered x(0) is
// non-⊥: a node that is ⊥ with an all-⊥ in-neighborhood stays ⊥, because
// the semimodule is zero-preserving and the filter is a representative
// projection with r(⊥) = ⊥. The engine verifies r(⊥) = ⊥ at runtime and
// seeds every node otherwise; zero-stability only matters for the initial
// frontier, so that seeding reproduces the dense loop's states and iteration
// count. The fixpoint is reached exactly when the frontier empties — no
// separate state-vector comparison pass is needed — and the states produced
// are identical, per Module.Equal at every node after every iteration, to
// those of Iterate, the dense definition the differential tests compare
// against.
//
// # Semi-naive merges
//
// The loop is semi-naive inside each node as well, down to single entries.
// Every iteration after a call's first recomputes candidate v as
//
//	x'(v) = r( x(v) ⊕ ⊕_{w ∈ frontier} a_{vw} ⊙ Δ(w) ),
//
// merging only the neighbours whose state changed in the previous
// iteration, and of each only its delta Δ(w): for a module with
// semiring.Differ, the entries its new state holds and its old one does
// not (the Khan et al. rule that a node forwards only its new entries);
// without Differ, its whole new state. This is exact because of an
// absorption invariant: after every iteration, every node has absorbed
// each neighbour's state from before that neighbour's last change,
// r(x(v) ⊕ a_{vw} ⊙ x_old(w)) = x(v). Two lines prove the step. The delta
// loses nothing: old ⊕ Δ = old ⊕ new, since every entry of new outside Δ
// is already in old. And absorption is transitive under the congruence of
// Corollary 2.17: x(v) ⊕ a ⊙ new ∼ x(v) ⊕ a ⊙ old ⊕ a ⊙ new = x(v) ⊕
// a ⊙ old ⊕ a ⊙ Δ ∼ x(v) ⊕ a ⊙ Δ, so the semi-naive merge equals the full
// one node for node, and the node it produces absorbs the new states in
// turn.
//
// Every loop starts one way, as a repair: from seeds, each with its state
// before the caller changed it, over a vector whose every other node has
// absorbed those old states. The first iteration merges each seed's whole
// in-neighbourhood — a seed reset after a non-monotone edit has absorbed
// nothing, and an edited arc ends at a seed — and every other candidate
// merges its own state and the seeds' terms only, as in every later
// iteration. A fresh run is the repair from ⊥: the all-⊥ vector is a
// fixpoint of r∘A when r(⊥) = ⊥, its seeds are the non-⊥ nodes, and each
// seed's old state is ⊥, so its delta is its whole state.
package mbf

import (
	"sync"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Runner executes MBF-like iterations of one algorithm on one graph.
//
// The semiring element type S is the type of adjacency-matrix entries; the
// module type M is the type of node states. Weight translates a graph arc
// into its adjacency-matrix entry a_{from,to} — for the min-plus and max-min
// algebras this is simply the edge weight, for the all-paths semiring it is
// the single-edge path set, and for the Boolean semiring it is "true".
type Runner[S, M any] struct {
	// Graph is the input graph G.
	Graph *graph.Graph
	// Module is the zero-preserving semimodule M over the semiring.
	Module semiring.Semimodule[S, M]
	// Filter is the representative projection r. Nil means the identity.
	// Like every semiring.Filter it is pure, so the engine applies it to the
	// caller's initial states, to fold results and, through the module's
	// Aggregate, to scratch merges alike, and never writes a state it was
	// handed.
	Filter semiring.Filter[M]
	// Weight translates the arc from→to of weight w into a_{from,to} ∈ S.
	Weight func(from, to graph.Node, w float64) S
	// Size measures the representation size of a node state (e.g. the
	// number of non-∞ entries of a distance map, Lemma 2.3). It is used for
	// work accounting only; nil means size 1 per state.
	Size func(M) int
	// Tracker, if non-nil, is charged the work/depth of every iteration in
	// the DAG cost model of §1.2. Sparse iterations charge only the nodes
	// they actually re-aggregate and only the terms they actually merge (in
	// a semi-naive iteration, the node's own state and its changed
	// neighbours' deltas) — the work performed, not the work a dense
	// iteration would have performed. A node is charged Size of its own
	// state, of every merged term and of its output. The aggregation path charges a
	// term Size(x) of the neighbour's state x rather than of the propagated
	// s ⊙ x: the aggregating modules shift distances, so the two sizes
	// agree unless Weight returns the semiring zero, which no Weight in
	// this library does.
	Tracker *par.Tracker

	// scratch recycles per-worker buffers of the aggregation fast path, so
	// steady-state iterations allocate only the output states.
	scratch sync.Pool // *iterScratch[S, M]
	// deltaPool recycles the frontier bookkeeping of the sparse engine
	// across fixpoint runs and Steppers.
	deltaPool sync.Pool // *deltaScratch
}

// iterScratch is one worker's reusable aggregation state: the term buffer
// handed to Aggregate plus the module's k-way-merge scratch.
type iterScratch[S, M any] struct {
	terms []semiring.Term[S, M]
	sc    semiring.Scratch
}

func (r *Runner[S, M]) size(x M) int {
	if r.Size == nil {
		return 1
	}
	return r.Size(x)
}

func (r *Runner[S, M]) filter(x M) M {
	if r.Filter == nil {
		return x
	}
	return r.Filter(x)
}

// filterAll returns a fresh vector of the filtered states of x0.
func (r *Runner[S, M]) filterAll(x0 []M) []M {
	x := make([]M, len(x0))
	for i, s := range x0 {
		x[i] = r.filter(s)
	}
	return x
}

// getIter pops a pooled per-worker aggregation scratch; putIter drops the
// state references the term buffer accumulated since getIter and returns it
// to the pool. The iteration loops call the pair once per ForEachChunk range,
// not once per node: the pool round trip and the reference-dropping barrier
// writes are per-worker-chunk costs, which matters on wavefront-shaped
// fixpoints where most recomputes are near-trivial.
func (r *Runner[S, M]) getIter() *iterScratch[S, M] {
	st, _ := r.scratch.Get().(*iterScratch[S, M])
	if st == nil {
		st = new(iterScratch[S, M])
	}
	return st
}

func (r *Runner[S, M]) putIter(st *iterScratch[S, M]) {
	t := st.terms[:cap(st.terms)]
	var zero semiring.Term[S, M]
	for i := range t {
		t[i] = zero // drop state references so the pool cannot pin them
	}
	r.scratch.Put(st)
}

// recompute derives one node's next state x'(v) = r(x(v) ⊕ ⊕_w a_vw ⊙ src(w))
// — through the module's filtered k-way aggregation when agg is non-nil,
// through the generic Add/SMul fold otherwise — and returns it together with
// the work to charge for the node (0 when no Tracker is attached). A full
// merge reads every neighbour with src = x and front = nil. A non-nil front
// restricts the sum to the arcs whose head is marked in it, and src is
// then x or the marked nodes' deltas: the semi-naive merge of the sparse
// loop, where every unmarked neighbour's state, and every marked one's
// before its last change, is already absorbed by x(v). Both paths skip the
// same arcs and charge identically: the node's own state, every propagated
// state actually merged, and the filtered output. st carries the worker's
// pooled term buffer and merge scratch; the aggregation leaves its state
// references in st.terms for putIter to drop once per chunk.
func (r *Runner[S, M]) recompute(vi int, x, src []M, front []bool, st *iterScratch[S, M], agg semiring.Aggregator[S, M]) (M, int64) {
	g := r.Graph
	v := graph.Node(vi)
	var work int64
	if agg != nil {
		terms := st.terms[:0]
		for _, a := range g.Neighbors(v) {
			if front != nil && !front[a.To] {
				continue
			}
			terms = append(terms, semiring.Term[S, M]{S: r.Weight(v, a.To, a.Weight), X: src[a.To]})
		}
		out := agg.Aggregate(&st.sc, x[vi], terms, r.Filter)
		if r.Tracker != nil {
			work = int64(r.size(x[vi]))
			for _, t := range terms {
				work += int64(r.size(t.X))
			}
			work += int64(r.size(out))
		}
		st.terms = terms[:0]
		return out, work
	}
	// Diagonal term: a_{vv} = 1, so the node keeps its own state.
	acc := x[vi]
	if r.Tracker != nil {
		work = int64(r.size(acc))
	}
	for _, a := range g.Neighbors(v) {
		if front != nil && !front[a.To] {
			continue
		}
		// Propagate the neighbor's state over the edge, then aggregate.
		s := r.Weight(v, a.To, a.Weight)
		propagated := r.Module.SMul(s, src[a.To])
		acc = r.Module.Add(acc, propagated)
		if r.Tracker != nil {
			work += int64(r.size(propagated))
		}
	}
	out := r.filter(acc)
	if r.Tracker != nil {
		work += int64(r.size(out))
	}
	return out, work
}

// chargePhase sums the per-node work of one (possibly sparse) iteration and
// charges it to the Tracker as a parallel phase. Aggregation of k items
// costs O(log k) depth (Lemma 2.3); we charge one depth unit per iteration
// since sizes are polylogarithmic after filtering.
func (r *Runner[S, M]) chargePhase(workPerNode []int64) {
	if r.Tracker == nil {
		return
	}
	var total int64
	for _, w := range workPerNode {
		total += w
	}
	r.Tracker.AddPhase(total, 1)
}

// Iterate performs one MBF-like iteration x ↦ r^V(Ax), parallelised over
// nodes. The input is not modified.
//
// When the module implements semiring.Aggregator, each node's neighborhood
// is aggregated and filtered in one call over pooled scratch buffers — the
// Lemma 2.3 fast path, which allocates only the filtered result. Otherwise
// the generic Add/SMul fold of Definition 2.11 runs; both paths compute the
// same states.
func (r *Runner[S, M]) Iterate(x []M) []M {
	n := r.Graph.N()
	if len(x) != n {
		panic("mbf: state vector length does not match graph size")
	}
	out := make([]M, n)
	var workPerNode []int64
	if r.Tracker != nil {
		workPerNode = make([]int64, n)
	}
	// The assertion is hoisted out of the per-node loop: generic interface
	// assertions go through the runtime, too slow per node.
	agg, _ := r.Module.(semiring.Aggregator[S, M])
	par.ForEachChunk(n, func(start, end int) {
		st := r.getIter()
		for vi := start; vi < end; vi++ {
			s, work := r.recompute(vi, x, x, nil, st, agg)
			out[vi] = s
			if workPerNode != nil {
				workPerNode[vi] = work
			}
		}
		r.putIter(st)
	})
	r.chargePhase(workPerNode)
	return out
}

// deltaScratch holds the reusable frontier bookkeeping of the sparse engine:
// the candidate mark bits, the frontier mark bits of a semi-naive iteration,
// the candidate list, the per-candidate change flags, and the per-candidate
// recomputed states (buffered so the write-back can happen after the
// parallel read phase, letting the caller update its vector in place). For
// a module with semiring.Differ it also holds the frontier's deltas: delta[u]
// is what u's last change added, carved from arena, and is read only while
// u is in the frontier. One instance serves a whole fixpoint loop.
type deltaScratch[M any] struct {
	touched []bool
	front   []bool
	seen    []bool // RepairInPlace's seed and changed-set marks, made on its first use
	cand    []graph.Node
	changed []bool
	states  []M
	work    []int64
	delta   []M // made on first use by a Differ module
	arena   semiring.DeltaArena
}

// getDelta pops a pooled deltaScratch sized for the runner's graph (the
// mark arrays must have one bit per node), allocating on first use. Callers
// return it with putDelta; iterateDelta leaves every mark cleared and every
// buffered state reference dropped, so a pooled scratch is always ready.
func (r *Runner[S, M]) getDelta(n int) *deltaScratch[M] {
	ds, _ := r.deltaPool.Get().(*deltaScratch[M])
	if ds == nil || len(ds.touched) != n {
		ds = &deltaScratch[M]{touched: make([]bool, n), front: make([]bool, n)}
	}
	return ds
}

func (r *Runner[S, M]) putDelta(ds *deltaScratch[M]) { r.deltaPool.Put(ds) }

// differ returns the module's Differ and readies ds's delta slots for it,
// or returns nil when the module merges whole states.
func (r *Runner[S, M]) differ(ds *deltaScratch[M]) semiring.Differ[M] {
	d, _ := r.Module.(semiring.Differ[M])
	if d != nil && ds.delta == nil {
		ds.delta = make([]M, len(ds.touched))
	}
	return d
}

// arena returns ds's delta arena, emptied, or nil, which makes Diff
// allocate, when the module folds (agg == nil; see iterateDelta).
func (r *Runner[S, M]) arena(ds *deltaScratch[M], agg semiring.Aggregator[S, M]) *semiring.DeltaArena {
	if agg == nil {
		return nil
	}
	ds.arena.Reset()
	return &ds.arena
}

// iterateDelta is the in-place sparse step: it recomputes the affected
// nodes of x (reading the vector concurrently, buffering the results in
// ds.states) and then writes the changed states back into x, returning the
// next frontier. The caller must own x exclusively.
//
// Every candidate merges its own state and the frontier's terms: the
// frontier's deltas in ds.delta when the module has Differ (set by the
// previous iteration's write-back, or by the loop's start for the seeds),
// and its whole states otherwise. In a loop's first iteration (first set)
// the frontier is the seeds, and each seed merges its whole
// in-neighbourhood instead. The write-back records the new frontier's
// deltas for the next iteration. They are carved from ds.arena after the
// read phase is over, so one arena serves every iteration; the generic fold
// may keep a delta's storage in a state (Add returns an empty side's
// partner), so without an Aggregator each delta is allocated.
func (r *Runner[S, M]) iterateDelta(x []M, frontier []graph.Node, first bool, ds *deltaScratch[M]) []graph.Node {
	g := r.Graph
	// Candidates: the frontier plus everyone reading a frontier node's
	// state. Node v aggregates x over its arcs, so a change at u feeds
	// exactly the nodes with an arc into u — u's neighbors, since graphs
	// are undirected.
	cand := ds.cand[:0]
	for _, u := range frontier {
		if !ds.touched[u] {
			ds.touched[u] = true
			cand = append(cand, u)
		}
		for _, a := range g.Neighbors(u) {
			if !ds.touched[a.To] {
				ds.touched[a.To] = true
				cand = append(cand, a.To)
			}
		}
	}
	changed := ds.changed[:0]
	states := ds.states[:0]
	var zeroM M
	for range cand {
		changed = append(changed, false)
		states = append(states, zeroM)
	}
	var workPerNode []int64
	if r.Tracker != nil {
		workPerNode = ds.work[:0]
		for range cand {
			workPerNode = append(workPerNode, 0)
		}
	}
	differ := r.differ(ds)
	front := ds.front
	for _, u := range frontier {
		front[u] = true
	}
	src := x
	if differ != nil {
		src = ds.delta
	}
	agg, _ := r.Module.(semiring.Aggregator[S, M])
	par.ForEachChunk(len(cand), func(start, end int) {
		st := r.getIter()
		for i := start; i < end; i++ {
			v := cand[i]
			var s M
			var work int64
			if first && front[v] {
				s, work = r.recompute(int(v), x, x, nil, st, agg)
			} else {
				s, work = r.recompute(int(v), x, src, front, st, agg)
			}
			if workPerNode != nil {
				workPerNode[i] = work
			}
			if !r.Module.Equal(s, x[v]) {
				states[i] = s
				changed[i] = true
			}
		}
		r.putIter(st)
	})
	for _, u := range frontier {
		front[u] = false
	}
	r.chargePhase(workPerNode)
	var arena *semiring.DeltaArena
	if differ != nil {
		arena = r.arena(ds, agg)
	}
	// Write-back after the parallel read phase: no candidate may observe a
	// neighbor's new state mid-iteration.
	next := make([]graph.Node, 0, len(cand))
	for i, v := range cand {
		if changed[i] {
			if differ != nil {
				ds.delta[v] = differ.Diff(arena, x[v], states[i])
			}
			x[v] = states[i]
			next = append(next, v)
		}
		states[i] = zeroM // drop state references before pooling
		ds.touched[v] = false
	}
	ds.cand, ds.changed, ds.states = cand[:0], changed[:0], states[:0]
	if workPerNode != nil {
		ds.work = workPerNode[:0]
	}
	return next
}

// Frontier returns the nodes whose state differs from ⊥ — the seed frontier
// of a sparse fixpoint loop over an already-filtered state vector.
func (r *Runner[S, M]) Frontier(x []M) []graph.Node {
	zero := r.Module.Zero()
	var f []graph.Node
	for v := range x {
		if !r.Module.Equal(x[v], zero) {
			f = append(f, graph.Node(v))
		}
	}
	return f
}

// zeroStable reports whether the filter maps ⊥ to ⊥ — the property that
// lets a fresh run seed only its non-⊥ nodes, because untouched all-⊥
// neighborhoods provably stay ⊥. Every representative projection in this
// library satisfies it.
func (r *Runner[S, M]) zeroStable() bool {
	if r.Filter == nil {
		return true
	}
	zero := r.Module.Zero()
	return r.Module.Equal(r.Filter(zero), zero)
}

// start filters x0 into a fresh vector the caller owns and readies a fresh
// run on it: the repair from ⊥ (see the package doc). It returns the vector,
// the seeds — the non-⊥ nodes, or every node when the filter does not map ⊥
// to ⊥ (a full first iteration, as the dense loop would perform) — and a
// pooled scratch holding the seeds' deltas: each seed's old state is ⊥, so
// its delta is its whole state, with no Diff and no arena copy.
func (r *Runner[S, M]) start(x0 []M) ([]M, []graph.Node, *deltaScratch[M]) {
	x := r.filterAll(x0)
	var seeds []graph.Node
	if r.zeroStable() {
		seeds = r.Frontier(x)
	} else {
		seeds = make([]graph.Node, len(x))
		for v := range seeds {
			seeds[v] = graph.Node(v)
		}
	}
	ds := r.getDelta(len(x))
	if r.differ(ds) != nil {
		for _, v := range seeds {
			ds.delta[v] = x[v]
		}
	}
	return x, seeds, ds
}

// fixpoint is the one sparse loop behind RunToFixpoint and RepairInPlace:
// it steps x in place from the seeds until the frontier empties or maxIter
// iterations have run, handing each iteration's changed nodes to visit when
// it is non-nil, and returns the number of iterations performed — including
// the final one that confirms the fixpoint. The caller must own x
// exclusively and have recorded the seeds' deltas in ds. The first
// iteration merges the seeds' whole in-neighbourhoods and every later one
// only the frontier's deltas (the semi-naive rule of the package doc);
// Stepper.Step follows the same rule.
func (r *Runner[S, M]) fixpoint(x []M, seeds []graph.Node, maxIter int, ds *deltaScratch[M], visit func(changed []graph.Node)) int {
	it := 0
	for frontier := seeds; it < maxIter && len(frontier) > 0; it++ {
		frontier = r.iterateDelta(x, frontier, it == 0, ds)
		if visit != nil {
			visit(frontier)
		}
	}
	return it
}

// RunToFixpoint iterates until the filtered state vector stops changing or
// maxIter iterations have run, returning the final states and the number of
// iterations performed — including the final iteration that confirms the
// fixpoint. A fixpoint is reached after at most SPD(G) hops for the distance
// algebras (§1.2), so the count is SPD-related + 1 when it converges.
//
// It is RepairInPlace from ⊥: the seeds are the non-⊥ filtered initial
// states (every node if the filter does not map ⊥ to ⊥), each with ⊥ as its
// old state, and only nodes that can still change are re-aggregated. An
// all-⊥ input under a ⊥-preserving filter is recognised as a fixpoint
// immediately, with 0 iterations; otherwise the states and iteration count
// equal those of iterating Iterate until two consecutive vectors are equal.
func (r *Runner[S, M]) RunToFixpoint(x0 []M, maxIter int) ([]M, int) {
	if len(x0) != r.Graph.N() {
		panic("mbf: state vector length does not match graph size")
	}
	x, seeds, ds := r.start(x0)
	defer r.putDelta(ds)
	return x, r.fixpoint(x, seeds, maxIter, ds, nil)
}

// Run performs h iterations starting from x0 and returns r^V A^h x(0).
// The initial filter application is included (states are kept filtered
// throughout, which Corollary 2.17 shows is equivalent).
func (r *Runner[S, M]) Run(x0 []M, h int) []M {
	x := r.filterAll(x0)
	for i := 0; i < h; i++ {
		x = r.Iterate(x)
	}
	return x
}

// MinPlusWeight is the Weight function of the min-plus algebras: the
// adjacency entry is the edge weight itself (Equation 1.4).
func MinPlusWeight(_, _ graph.Node, w float64) float64 { return w }

// MaxMinWeight is the Weight function of the max-min algebras
// (Equation 3.9).
func MaxMinWeight(_, _ graph.Node, w float64) float64 { return w }

// BoolWeight is the Weight function of the Boolean algebra
// (Equation 3.28): every edge propagates.
func BoolWeight(_, _ graph.Node, _ float64) bool { return true }

// PathWeight is the Weight function of the all-paths semiring
// (Equation 3.18): the arc from→to becomes the single-edge path (from, to)
// with its weight.
func PathWeight(from, to graph.Node, w float64) semiring.PathSet {
	return semiring.PathSet{semiring.MakePath(from, to): w}
}
