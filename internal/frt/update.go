// Live updates: incremental re-embedding of an FRT ensemble under edge
// edits. The algebraic framework makes fixpoints repairable, not just
// computable — the sparse engine (mbf.Runner.RunToFixpointFrom) re-converges
// an old LE-list fixpoint from a seed frontier, so a small edit batch costs
// O(affected cone), not a full rebuild.
//
// Two regimes, split by monotonicity:
//
//   - Decrease-only batches (inserts and weight decreases) take the pure
//     delta path: every old entry is still a valid exact distance (edits can
//     only shorten paths that are then discovered by propagation), so the
//     repair seeds the frontier with the edited-edge endpoints and relaxes
//     outward. The LE filter keeps this local: an improvement that is
//     dominated at a node cannot matter to any node behind it (the suffix
//     property), so propagation dies exactly where the lists stop changing.
//
//   - Non-monotone batches (deletions and weight increases) can leave stale
//     too-small entries that no amount of re-relaxation removes. These
//     invalidate-and-recompute: a per-entry support-chain walk over the OLD
//     graph and OLD lists (semiring.SupportedEntries) marks the cone of
//     nodes holding an entry derivable through an edited edge — every
//     fixpoint entry has a same-source supporting next hop along each of its
//     shortest paths, so the walk over-approximates the stale set — then the
//     cone is reset to singleton states and repaired together with the edit
//     endpoints. The retained lists are rank-keyed (see the package doc);
//     the walk only compares keys, and a reset node v gets the singleton
//     {Rank[v]: 0}. Untainted nodes provably keep exactly their old lists, so
//     the cone is also the damage bound.
//
// Trees are patched per-tree: a tree whose repaired lists are unchanged
// keeps its Tree object untouched; only trees whose lists actually differ
// are re-assembled. The differential suite pins both paths bitwise against
// a full rebuild with frozen randomness (same orders, same betas).
package frt

import (
	"fmt"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// DynamicEnsemble is a live FRT ensemble over a mutable graph: the direct
// (Khan et al., §8.1) LE-list pipeline with its per-tree fixpoint states
// retained, so edit batches are absorbed incrementally instead of
// resampling. It is the build-side state behind the serving tier's /update
// endpoint; query-side consumers take immutable snapshots via Ensemble().
//
// Methods are not safe for concurrent use — callers serialise updates (the
// daemon holds one update lock) and hand out Ensemble() snapshots to
// readers.
type DynamicEnsemble struct {
	g      *graph.Graph
	orders []*Order
	betas  []float64
	// keys are the orders' rank-keyed views; lists holds each tree's
	// retained LE fixpoint under those rank keys (see the package doc).
	keys    []rankKeys
	lists   [][]semiring.DistMap
	trees   []*Tree
	tracker *par.Tracker
}

// UpdateStats summarises one ApplyEdits call.
type UpdateStats struct {
	// Inserts, Deletes, and Reweights count the applied edits by kind.
	Inserts, Deletes, Reweights int
	// DecreaseOnly reports whether the batch took the pure delta path.
	DecreaseOnly bool
	// AffectedTrees is the number of trees whose lists changed (and were
	// therefore re-assembled); the remaining trees were kept as-is.
	AffectedTrees int
	// RecomputedNodes is the total size of the per-tree affected cones
	// (changed or invalidated nodes), summed over trees.
	RecomputedNodes int
	// Iterations is the maximum sparse repair iteration count over trees.
	Iterations int
}

// NewDynamicEnsemble draws count independent trees of g's exact metric via
// the direct LE-list pipeline and retains the fixpoint state needed for
// incremental updates. The per-tree randomness (order and β) is drawn from
// RNGs split off rng sequentially, so a fixed seed yields the identical
// ensemble at any parallelism.
func NewDynamicEnsemble(g *graph.Graph, count int, rng *par.RNG, tracker *par.Tracker) (*DynamicEnsemble, error) {
	if count < 1 {
		return nil, fmt.Errorf("frt: ensemble needs ≥ 1 tree")
	}
	if rng == nil {
		return nil, fmt.Errorf("frt: rng is required")
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("frt: empty graph")
	}
	orders := make([]*Order, count)
	betas := make([]float64, count)
	for i, r := range rng.SplitN(count) {
		orders[i] = NewOrder(n, r)
		betas[i] = RandomBeta(r)
	}
	return NewDynamicEnsembleWith(g, orders, betas, tracker)
}

// NewDynamicEnsembleWith builds the retained ensemble from explicit per-tree
// orders and betas — the frozen-randomness constructor that defines the
// reference an incremental update must match bitwise: ApplyEdits(edits) on a
// DynamicEnsemble equals NewDynamicEnsembleWith on the edited graph with the
// same orders and betas, tree for tree and list for list.
func NewDynamicEnsembleWith(g *graph.Graph, orders []*Order, betas []float64, tracker *par.Tracker) (*DynamicEnsemble, error) {
	if len(orders) == 0 || len(orders) != len(betas) {
		return nil, fmt.Errorf("frt: need equally many orders and betas (≥ 1), got %d and %d", len(orders), len(betas))
	}
	keys := make([]rankKeys, len(orders))
	for i, o := range orders {
		rk, err := o.keys(g.N())
		if err != nil {
			return nil, fmt.Errorf("frt: tree %d: %w", i, err)
		}
		keys[i] = rk
	}
	lists, _ := leListsRanked(g, keys, tracker)
	trees := make([]*Tree, len(orders))
	for i := range orders {
		t, err := buildTreeRanked(lists[i], keys[i], betas[i])
		if err != nil {
			return nil, fmt.Errorf("frt: tree %d: %w", i, err)
		}
		trees[i] = t
	}
	return &DynamicEnsemble{
		g:       g,
		orders:  orders,
		betas:   betas,
		keys:    keys,
		lists:   lists,
		trees:   trees,
		tracker: tracker,
	}, nil
}

// Graph returns the current (immutable) graph snapshot.
func (d *DynamicEnsemble) Graph() *graph.Graph { return d.g }

// K returns the ensemble size.
func (d *DynamicEnsemble) K() int { return len(d.trees) }

// Trees returns the current trees. The returned slice is fresh; the trees
// themselves are shared immutable values.
func (d *DynamicEnsemble) Trees() []*Tree {
	return append([]*Tree(nil), d.trees...)
}

// Ensemble returns an immutable query-side snapshot of the current trees.
// Each call returns a fresh Ensemble so its lazily built OracleIndex is
// never stale: after an update, index the new snapshot and atomically swap
// it in front of readers.
func (d *DynamicEnsemble) Ensemble() *Ensemble {
	return &Ensemble{Trees: d.Trees()}
}

// taintCone walks support chains forwards over the OLD graph and OLD lists
// to find every node holding an entry that a non-monotone edit could have
// produced. Taint is tracked per entry, not per node: source s is tainted at
// q when lists[q]'s entry for s is derived — same source, distance exactly
// arc weight plus the neighbor's distance (semiring.SupportedEntries) — from
// a tainted entry for s at a neighbor, or directly across an edited edge.
//
// Entry granularity is what keeps the cone small, and it is sound by the LE
// subpath property: if (s, d) ∈ L(q) then every node w on a shortest s→q
// path carries (s, d(s, w)) in its own list, so when an edit kills all of
// the entry's shortest paths the same-source support chain walked here runs
// from an edited endpoint to q intact. A node whose entries all escape the
// walk keeps exact distances, and under non-decreasing edits unchanged
// blockers admit no new entries either, so its whole list is unchanged.
// Equal-length alternative paths may over-taint; they never under-taint.
func taintCone(g *graph.Graph, lists []semiring.DistMap, applied []graph.AppliedEdit) []graph.Node {
	n := g.N()
	taintIdx := make([][]bool, n) // per node, parallel to lists[v]'s entries
	queued := make([]bool, n)
	var queue []graph.Node
	var cone []graph.Node
	taint := func(v graph.Node, i int) {
		tv := taintIdx[v]
		if tv == nil {
			tv = make([]bool, lists[v].Len())
			taintIdx[v] = tv
			cone = append(cone, v)
		}
		if !tv[i] && !queued[v] {
			queued[v] = true
			queue = append(queue, v)
		}
		tv[i] = true
	}
	for _, e := range applied {
		nonMonotone := e.Op == graph.EditDelete ||
			(e.Op == graph.EditReweight && e.Weight > e.OldWeight)
		if !nonMonotone {
			continue
		}
		semiring.SupportedEntries(lists[e.U], lists[e.V], e.OldWeight,
			func(i, _ int) { taint(e.U, i) })
		semiring.SupportedEntries(lists[e.V], lists[e.U], e.OldWeight,
			func(i, _ int) { taint(e.V, i) })
	}
	// A node re-enters the queue whenever its tainted set grows, so every
	// tainted entry is eventually propagated across every out-arc.
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		queued[w] = false
		tw := taintIdx[w]
		for _, a := range g.InNeighbors(w) {
			q := a.To
			semiring.SupportedEntries(lists[q], lists[w], a.Weight, func(i, j int) {
				if tw[j] {
					taint(q, i)
				}
			})
		}
	}
	return cone
}

// ApplyEdits applies an edge edit batch and incrementally repairs the
// ensemble: the graph is edited copy-on-write (see graph.ApplyEdits), each
// tree's LE-list fixpoint is re-converged from the affected seeds, and only
// trees whose lists changed are re-assembled. The result is bitwise the
// full rebuild with the same frozen randomness (NewDynamicEnsembleWith on
// the edited graph).
//
// The batch is transactional: on any error — validation, a deletion that
// disconnects the graph (the §1.2 standing assumption), tree assembly — the
// ensemble is left exactly as it was.
func (d *DynamicEnsemble) ApplyEdits(edits []graph.Edit) (*UpdateStats, error) {
	g2, sum, err := graph.ApplyEdits(d.g, edits)
	if err != nil {
		return nil, err
	}
	stats := &UpdateStats{
		Inserts:      sum.Inserts,
		Deletes:      sum.Deletes,
		Reweights:    sum.Reweights,
		DecreaseOnly: sum.DecreaseOnly,
	}
	if len(sum.Applied) == 0 {
		return stats, nil
	}
	if sum.Deletes > 0 && !g2.Connected() {
		return nil, fmt.Errorf("frt: edit batch disconnects the graph")
	}
	newLists := make([][]semiring.DistMap, d.K())
	newTrees := make([]*Tree, d.K())
	module := semiring.DistMapModule{}
	for i := range d.trees {
		old := d.lists[i]
		base := old
		seeds := sum.Touched
		var cone []graph.Node
		if !sum.DecreaseOnly {
			// Non-monotone: invalidate the support cone (computed against the
			// OLD graph and lists) and recompute it alongside the endpoints.
			cone = taintCone(d.g, old, sum.Applied)
			if len(cone) > 0 {
				base = append([]semiring.DistMap(nil), old...)
				for _, v := range cone {
					base[v] = semiring.SingletonDist(d.keys[i].key[v], 0)
				}
				seeds = make([]graph.Node, 0, len(cone)+len(sum.Touched))
				seeds = append(seeds, cone...)
				seeds = append(seeds, sum.Touched...)
			}
		}
		runner := leRunner(g2, d.tracker)
		repaired, changed, iters := runner.RunToFixpointFrom(base, seeds, g2.N())
		if iters > stats.Iterations {
			stats.Iterations = iters
		}
		// The affected set — reset or actually changed — is where the new
		// lists can differ from the old; everything else aliases old states.
		dirty := false
		affected := 0
		mark := make(map[graph.Node]struct{}, len(cone)+len(changed))
		for _, v := range append(append([]graph.Node(nil), cone...), changed...) {
			if _, dup := mark[v]; dup {
				continue
			}
			mark[v] = struct{}{}
			affected++
			if !module.Equal(repaired[v], old[v]) {
				dirty = true
			}
		}
		stats.RecomputedNodes += affected
		if !dirty {
			newLists[i], newTrees[i] = old, d.trees[i]
			continue
		}
		stats.AffectedTrees++
		t, err := buildTreeRanked(repaired, d.keys[i], d.betas[i])
		if err != nil {
			return nil, fmt.Errorf("frt: repairing tree %d: %w", i, err)
		}
		newLists[i], newTrees[i] = repaired, t
	}
	d.g, d.lists, d.trees = g2, newLists, newTrees
	return stats, nil
}
