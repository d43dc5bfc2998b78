// Live updates: incremental re-embedding of an FRT ensemble under edge
// edits. The algebraic framework makes fixpoints repairable, not just
// computable — the sparse engine (mbf.Runner.RepairInPlace) re-converges
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
// Trees are patched per-tree, and the trees of a batch are repaired
// concurrently: each tree's cone, re-fixpoint, dirty check and re-assembly
// is independent of the others'. A tree whose repaired lists are unchanged
// keeps its Tree object untouched; only trees whose lists actually differ
// are re-assembled. Stats are merged in tree order, so they do not depend
// on the parallel width. The differential suite pins both paths bitwise
// against a full rebuild with frozen randomness (same orders, same betas).
//
// A dirty tree is re-assembled as a row patch (assembleTree with a
// treePatch). A node's chain of level centers is a function of its own LE
// list and the tree's level range [imin, imax] alone (Lemma 7.2), so only
// the rows whose lists changed are re-read; every other node's chain is
// copied off the old tree, leaf to root, and the levels are regrouped from
// the full center table as in a fresh build, which keeps cluster ids and
// the tree byte-identical. The level range comes from distance ranges
// (smallest non-zero and largest list distance) retained per tree for
// each block of rangeBlock rows; only the blocks holding a changed row are
// re-ranged. When a batch moves the range (an edge lighter than every LE
// distance, or a farthest node pushed past β·2^imax), the fallback reads
// every list of that tree, exactly the full build. UpdateStats.PatchedRows
// and RangeRebuilds count both.
//
// The OracleIndex is patched too. The index's lanes are node ids offset per
// level (see Tree's layout contract), so the next index copies the current
// one's words and rewrites the dirty trees' rows through the writer a fresh
// pack uses (OracleIndex.patch). When a batch moves the index layout (a new
// largest depth or lane split), NewOracleIndex packs all trees instead, and
// UpdateStats.IndexRebuilds counts it. The per-tree repair marks (the taint
// cone's, the reset set's and the repair runner's) are pooled and cleared
// through the nodes they mark.
package frt

import (
	"fmt"
	"slices"

	"parmbf/internal/graph"
	"parmbf/internal/mbf"
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
	keys  []RankKeys
	lists [][]semiring.DistMap
	// ranges[i] are the block distance ranges of lists[i] (assembleTree),
	// from which a patched tree re-derives its level range without reading
	// the unchanged lists.
	ranges [][]rowRange
	trees  []*Tree
	// index is the OracleIndex of trees, which ApplyEdits patches.
	index *OracleIndex
	// runner is the LE-list repair runner, re-pointed at each edited graph
	// so that its pooled frontier scratch outlives a batch.
	runner  *mbf.Runner[float64, semiring.DistMap]
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
	// PatchedRows is the number of LE lists re-read into tree rows, summed
	// over the re-assembled trees: a patched tree reads its changed lists,
	// a range rebuild all n.
	PatchedRows int
	// RangeRebuilds is the number of re-assembled trees whose level range
	// moved, so that every list was re-read.
	RangeRebuilds int
	// IndexRebuilds is 1 when the batch moved the OracleIndex layout (the
	// largest tree depth or the lane split), so that the index was packed
	// afresh instead of patched.
	IndexRebuilds int
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
	keys := make([]RankKeys, len(orders))
	for i, o := range orders {
		rk, err := o.keys(g.N())
		if err != nil {
			return nil, fmt.Errorf("frt: tree %d: %w", i, err)
		}
		keys[i] = rk
	}
	lists, _ := leListsRanked(g, keys, tracker)
	ranges := make([][]rowRange, len(orders))
	trees := make([]*Tree, len(orders))
	errs := make([]error, len(orders))
	par.ForEach(len(orders), func(i int) {
		var built assembly
		trees[i], built, errs[i] = assembleTree(lists[i], keys[i], betas[i], treePatch{})
		ranges[i] = built.ranges
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("frt: tree %d: %w", i, err)
		}
	}
	index, err := NewOracleIndex(trees)
	if err != nil {
		return nil, err
	}
	return &DynamicEnsemble{
		g:       g,
		orders:  orders,
		betas:   betas,
		keys:    keys,
		lists:   lists,
		ranges:  ranges,
		trees:   trees,
		index:   index,
		runner:  LERunner(g, 1, tracker),
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

// Ensemble returns an immutable query-side snapshot of the current trees,
// with their OracleIndex already built: Index returns the index that the
// constructor packed and each ApplyEdits since has patched. After an
// update, take a new snapshot and atomically swap it in front of readers.
func (d *DynamicEnsemble) Ensemble() *Ensemble {
	return indexedEnsemble(d.Trees(), d.index)
}

// repairMarks is the n-entry working memory of one tree's repair, pooled
// across the trees of a batch and across batches. Between uses every mark
// is clear: each pass clears exactly the nodes it marked, so a repair
// touches O(cone) of it, not O(n).
type repairMarks struct {
	// taintAt[v] is 1 + the offset of v's per-entry taint flags in taint,
	// or 0 for a node outside the cone (taintCone).
	taintAt []int32
	taint   []bool
	queued  []bool
	// reset marks the cone in ApplyEdits.
	reset []bool
}

var repairMarksPool = par.Pool[*repairMarks]{New: func() *repairMarks { return &repairMarks{} }}

// getRepairMarks returns pooled marks sized for n nodes.
func getRepairMarks(n int) *repairMarks {
	m := repairMarksPool.Get()
	if len(m.reset) != n {
		*m = repairMarks{taintAt: make([]int32, n), queued: make([]bool, n), reset: make([]bool, n)}
	}
	return m
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
//
// The marks live in m and are clear again on return.
func taintCone(g *graph.Graph, lists []semiring.DistMap, applied []graph.AppliedEdit, m *repairMarks) []graph.Node {
	var queue []graph.Node
	var cone []graph.Node
	taint := func(v graph.Node, i int) {
		at := m.taintAt[v]
		if at == 0 {
			at = int32(len(m.taint)) + 1
			m.taintAt[v] = at
			m.taint = append(m.taint, make([]bool, lists[v].Len())...)
			cone = append(cone, v)
		}
		if f := &m.taint[int(at)-1+i]; !*f {
			*f = true
			if !m.queued[v] {
				m.queued[v] = true
				queue = append(queue, v)
			}
		}
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
	// tainted entry is eventually propagated across every out-arc. The
	// queue drains, which clears queued.
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		m.queued[w] = false
		tw := int(m.taintAt[w]) - 1
		for _, a := range g.Neighbors(w) {
			q := a.To
			semiring.SupportedEntries(lists[q], lists[w], a.Weight, func(i, j int) {
				if m.taint[tw+j] {
					taint(q, i)
				}
			})
		}
	}
	for _, v := range cone {
		m.taintAt[v] = 0
	}
	m.taint = m.taint[:0]
	return cone
}

// ApplyEdits applies an edge edit batch and incrementally repairs the
// ensemble: the graph is edited copy-on-write (see graph.ApplyEdits), each
// tree's LE-list fixpoint is re-converged from the affected seeds, and only
// trees whose lists changed are re-assembled; the trees are repaired
// concurrently. The result is bitwise the full rebuild with the same frozen
// randomness (NewDynamicEnsembleWith on the edited graph).
//
// The OracleIndex is patched, not repacked: the next index is a copy of
// the current one with the re-assembled trees' rows rewritten. When the
// batch moves the index layout (the largest depth or the lane split),
// NewOracleIndex packs the new trees instead. Either way the index equals
// NewOracleIndex of the new trees, field for field.
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
	d.runner.Graph = g2
	// Each tree repairs into its own slot. Stats are merged in tree order
	// and the lowest-index error wins, so the outcome does not depend on
	// the parallel width; d changes only once every tree has succeeded.
	module := semiring.DistMapModule{}
	type repair struct {
		lists           []semiring.DistMap
		tree            *Tree
		iters, affected int
		built           assembly
		err             error
	}
	repairs := make([]repair, d.K())
	par.ForEach(d.K(), func(i int) {
		r := &repairs[i]
		old := d.lists[i]
		m := getRepairMarks(g2.N())
		defer repairMarksPool.Put(m)
		// The repair steps its own copy of the old fixpoint; the old lists
		// stay intact until the whole batch has succeeded.
		x := append([]semiring.DistMap(nil), old...)
		seeds := sum.Touched
		var cone []graph.Node
		if !sum.DecreaseOnly {
			// Non-monotone: invalidate the support cone (computed against the
			// OLD graph and lists) and recompute it alongside the endpoints.
			cone = taintCone(d.g, old, sum.Applied, m)
			if len(cone) > 0 {
				for _, v := range cone {
					x[v] = semiring.SingletonDist(d.keys[i].Key[v], 0)
				}
				seeds = make([]graph.Node, 0, len(cone)+len(sum.Touched))
				seeds = append(seeds, cone...)
				seeds = append(seeds, sum.Touched...)
			}
		}
		// Every seed's old state is its old list: a reset node's singleton
		// is an entry of that list, so it adds nothing its readers lack.
		olds := make([]semiring.DistMap, len(seeds))
		for j, v := range seeds {
			olds[j] = old[v]
		}
		changed, iters := d.runner.RepairInPlace(x, seeds, olds, g2.N())
		r.iters = iters
		// The affected set — reset or actually changed — is where the new
		// lists can differ from the old; everything else aliases old states.
		// cone and changed are each duplicate-free, so only a changed node
		// that was also reset is skipped. rows collects the affected nodes
		// whose lists really differ: the rows the tree patch re-reads.
		var rows []graph.Node
		for _, v := range cone {
			m.reset[v] = true
			if !module.Equal(x[v], old[v]) {
				rows = append(rows, v)
			}
		}
		r.affected = len(cone)
		for _, v := range changed {
			if !m.reset[v] {
				r.affected++
				if !module.Equal(x[v], old[v]) {
					rows = append(rows, v)
				}
			}
		}
		for _, v := range cone {
			m.reset[v] = false
		}
		if len(rows) == 0 {
			r.lists, r.tree, r.built.ranges = old, d.trees[i], d.ranges[i]
			return
		}
		t, built, err := assembleTree(x, d.keys[i], d.betas[i], treePatch{old: d.trees[i], ranges: d.ranges[i], rows: rows})
		if err != nil {
			r.err = fmt.Errorf("frt: repairing tree %d: %w", i, err)
			return
		}
		r.lists, r.tree, r.built = x, t, built
	})
	newLists := make([][]semiring.DistMap, d.K())
	newRanges := make([][]rowRange, d.K())
	newTrees := make([]*Tree, d.K())
	starts := make([][]int32, d.K())
	for i, r := range repairs {
		if r.err != nil {
			return nil, r.err
		}
		stats.Iterations = max(stats.Iterations, r.iters)
		stats.RecomputedNodes += r.affected
		if r.tree != d.trees[i] {
			stats.AffectedTrees++
			stats.PatchedRows += r.built.read
			if r.built.full {
				stats.RangeRebuilds++
			}
			starts[i] = r.built.starts
		}
		newLists[i], newRanges[i], newTrees[i] = r.lists, r.built.ranges, r.tree
	}
	index := d.index
	if stats.AffectedTrees > 0 {
		if index = d.index.patch(newTrees, starts); index == nil {
			stats.IndexRebuilds = 1
			if index, err = NewOracleIndex(newTrees); err != nil {
				return nil, fmt.Errorf("frt: indexing the repaired trees: %w", err)
			}
		}
	}
	d.g, d.lists, d.ranges, d.trees, d.index = g2, newLists, newRanges, newTrees, index
	return stats, nil
}

// patch returns the index of trees, which differ from the trees o indexes
// only at the re-assembled ones, or nil when the layout moved (a new largest
// depth, hence stride, or a new lane split) or a re-assembled tree cannot
// be indexed; NewOracleIndex then repacks, or reports the error. The result
// copies o's words and weight rows and rewrites the re-assembled trees'
// through writeTree, so it equals NewOracleIndex(trees) field for field.
// starts[ti] is nil for a tree o indexes and, for a re-assembled tree, its
// levelStarts as the assembly laid the levels out (assembly.starts): an
// assembled tree meets the layout contract by construction, so patch takes
// its levels from there instead of re-scanning Level.
func (o *OracleIndex) patch(trees []*Tree, starts [][]int32) *OracleIndex {
	c := newIndex(o.n, o.k)
	c.stride, c.split, c.words, c.loWords = o.stride, o.split, o.words, o.loWords
	c.treeSplit = slices.Clone(o.treeSplit)
	levels := make([]treeLevels, len(trees))
	maxDepth := 0
	for ti, t := range trees {
		if starts[ti] == nil {
			maxDepth = max(maxDepth, t.Depth())
			continue
		}
		l := treeLevels{starts: starts[ti], depth: len(starts[ti]) - 2}
		levels[ti], c.treeSplit[ti] = l, l.laneSplit()
		maxDepth = max(maxDepth, l.depth)
	}
	if maxDepth+1 != c.stride || slices.Max(c.treeSplit) != c.split {
		return nil
	}
	c.pw, c.packed, c.packedLo = slices.Clone(o.pw), slices.Clone(o.packed), slices.Clone(o.packedLo)
	for ti, t := range trees {
		if starts[ti] != nil && c.writeTree(t, ti, levels[ti]) != nil {
			return nil
		}
	}
	return c
}
