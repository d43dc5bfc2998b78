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
// NOT in seeds must satisfy the fixpoint equation x0(v) = r(x0(v) ⊕ ⊕_w
// a_vw ⊙ x0(w)) under the runner's CURRENT graph — i.e. seeds must cover
// every node whose own state was modified by the caller (e.g. reset to a
// singleton after a non-monotone edit) and every endpoint of an edited edge.
// Nodes beyond the seeds' influence cone are then provably stable and are
// never visited, which is what makes a small edit cost O(affected), not
// Ω(n).
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
	if len(x0) != r.Graph.N() {
		panic("mbf: state vector length does not match graph size")
	}
	x := make([]M, len(x0))
	copy(x, x0)
	frontier := make([]graph.Node, 0, len(seeds))
	seen := make([]bool, len(x0))
	for _, v := range seeds {
		if !seen[v] {
			seen[v] = true
			frontier = append(frontier, v)
		}
	}
	clear(seen) // reuse as the changed-set marks below
	var changed []graph.Node
	it := r.fixpoint(x, frontier, maxIter, func(next []graph.Node) {
		for _, v := range next {
			if !seen[v] {
				seen[v] = true
				changed = append(changed, v)
			}
		}
	})
	return x, changed, it
}
