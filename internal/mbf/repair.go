package mbf

import (
	"parmbf/internal/graph"
	"parmbf/internal/semiring"
)

// RepairInPlace resumes a fixpoint computation from a caller-supplied state
// vector and seed frontier — the incremental-repair entry point of the
// sparse engine, sharing RunToFixpoint's loop: instead of seeding from the
// non-⊥ initial states of a fresh run, the caller hands in an old fixpoint
// with some nodes' states changed (raised, or reset after a non-monotone
// edit) plus the set of nodes whose state or whose inputs changed, and the
// engine re-aggregates outward from those seeds until the states stabilise
// again. It steps x itself: the caller hands x over, and one that must keep
// the old fixpoint repairs a copy (slices.Clone; the copy may share the
// unchanged maps, which the engine never writes).
//
// old[i] is seeds[i]'s state before the caller changed it (x[seeds[i]]
// when it did not). The contract on (x, seeds, old): x must already be
// filtered, and every node that is not a seed must satisfy the fixpoint
// equation x(v) = r(x(v) ⊕ ⊕_w a_vw ⊙ y(w)) under the runner's CURRENT
// graph, where y is x with every seed's old state in place of its current
// one — i.e. seeds must cover every node whose own state the caller
// modified and every endpoint of an edited edge, and the rest of x must be
// the old fixpoint. Nodes beyond the seeds' influence cone are then
// provably stable and are never visited, which is what makes a small edit
// cost O(affected), not Ω(n).
//
// The first iteration recomputes every seed from all the states it reads —
// a reset seed has absorbed nothing, and an edited arc ends at a seed — and
// every other candidate from its own state and the seeds' deltas only
// (semiring.Differ: what each seed's current state adds to its old one; a
// module without Differ merges the seeds' whole states). Every later
// iteration merges only the deltas of the neighbours that changed in the
// previous one. The contract is exactly what makes this exact: a non-seed
// node has absorbed each neighbour's old state, so the deltas are all it
// lacks (see the package doc). RunToFixpoint is this loop from ⊥.
//
// Returns the deduplicated set of nodes whose state actually changed at some
// iteration (in first-change order — the "affected cone" a caller patches
// downstream artifacts from) and the number of sparse iterations performed,
// including the final iteration that confirms the fixpoint. Duplicate seeds
// are tolerated; the first one's old state counts. A graph whose node count
// differs from the runner's pooled scratch re-sizes the scratch
// transparently (see getDelta), so a runner may be re-pointed at an edited
// graph between calls.
func (r *Runner[S, M]) RepairInPlace(x []M, seeds []graph.Node, old []M, maxIter int) ([]graph.Node, int) {
	if len(x) != r.Graph.N() {
		panic("mbf: state vector length does not match graph size")
	}
	if len(old) != len(seeds) {
		panic("mbf: RepairInPlace needs one old state per seed")
	}
	ds := r.getDelta(len(x))
	defer r.putDelta(ds)
	differ := r.differ(ds)
	var arena *semiring.DeltaArena
	if differ != nil {
		agg, _ := r.Module.(semiring.Aggregator[S, M])
		arena = r.arena(ds, agg)
	}
	// seen marks the seeds, then the changed set; each is cleared through
	// its own list, so the pooled marks are clear again on return.
	if ds.seen == nil {
		ds.seen = make([]bool, len(x))
	}
	seen := ds.seen
	frontier := make([]graph.Node, 0, len(seeds))
	for i, v := range seeds {
		if !seen[v] {
			seen[v] = true
			frontier = append(frontier, v)
			if differ != nil {
				ds.delta[v] = differ.Diff(arena, old[i], x[v])
			}
		}
	}
	for _, v := range frontier {
		seen[v] = false
	}
	var changed []graph.Node
	it := r.fixpoint(x, frontier, maxIter, ds, func(next []graph.Node) {
		for _, v := range next {
			if !seen[v] {
				seen[v] = true
				changed = append(changed, v)
			}
		}
	})
	for _, v := range changed {
		seen[v] = false
	}
	return changed, it
}
