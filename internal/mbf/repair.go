package mbf

import "parmbf/internal/graph"

// RunToFixpointFrom resumes a fixpoint computation from a caller-supplied
// state vector and seed frontier — the incremental-repair entry point of the
// sparse engine, sharing RunToFixpoint's loop: instead of seeding from the
// non-⊥ initial states of a fresh run, the caller hands in an old fixpoint
// (or an old fixpoint with some nodes reset) plus the set of nodes whose
// state or whose inputs changed, and the engine re-aggregates outward from
// those seeds until the states stabilise again.
//
// The contract on (x0, seeds): x0 must already be filtered, and every node
// that neither is a seed nor reads a seed's state (has an arc to a seed)
// must satisfy the fixpoint equation x0(v) = r(x0(v) ⊕ ⊕_w a_vw ⊙ x0(w))
// under the runner's CURRENT graph — i.e. seeds must cover every node whose
// own state was modified by the caller (e.g. reset to a singleton after a
// non-monotone edit) and every endpoint of an edited edge. Nodes beyond the
// seeds' influence cone are then provably stable and are never visited,
// which is what makes a small edit cost O(affected), not Ω(n).
//
// The first iteration recomputes the seeds and their readers from all the
// states they read — a reset seed has absorbed nothing, so it must re-read
// its unchanged neighbours once — and every later iteration merges only the
// neighbours that changed in the previous one. The contract is exactly what
// makes the later, semi-naive iterations exact: a node the first iteration
// does not recompute already absorbs each of its neighbours, because it
// satisfies its full fixpoint equation (see the package doc).
//
// Returns the repaired states (x0 is not modified; the result vector aliases
// unchanged states), the deduplicated set of nodes whose state actually
// changed at some iteration (in first-change order — the "affected cone" a
// caller patches downstream artifacts from), and the number of sparse
// iterations performed, including the final iteration that confirms the
// fixpoint. Duplicate seeds are tolerated. A graph whose node count differs
// from the runner's pooled scratch re-sizes the scratch transparently (see
// getDelta), so a runner may be re-pointed at an edited graph between calls.
func (r *Runner[S, M]) RunToFixpointFrom(x0 []M, seeds []graph.Node, maxIter int) ([]M, []graph.Node, int) {
	x := make([]M, len(x0))
	copy(x, x0)
	changed, it := r.RepairInPlace(x, seeds, maxIter)
	return x, changed, it
}

// RepairInPlace is RunToFixpointFrom on a state vector the caller owns and
// hands over: it steps x itself, under the same contract on (x, seeds), and
// returns the changed set and the iteration count. A caller that has to copy
// the old fixpoint anyway, to reset part of it, repairs the copy with no
// second one.
func (r *Runner[S, M]) RepairInPlace(x []M, seeds []graph.Node, maxIter int) ([]graph.Node, int) {
	if len(x) != r.Graph.N() {
		panic("mbf: state vector length does not match graph size")
	}
	ds := r.getDelta(len(x))
	defer r.putDelta(ds)
	// seen marks the seeds, then the changed set; each is cleared through
	// its own list, so the pooled marks are clear again on return.
	if ds.seen == nil {
		ds.seen = make([]bool, len(x))
	}
	seen := ds.seen
	frontier := make([]graph.Node, 0, len(seeds))
	for _, v := range seeds {
		if !seen[v] {
			seen[v] = true
			frontier = append(frontier, v)
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
