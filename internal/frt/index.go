package frt

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// This file is the query layer over sampled FRT trees: OracleIndex bundles
// an ensemble into a batched min-distance oracle — the serving-side
// counterpart of the construction pipeline (Embedder builds trees cheaply,
// OracleIndex makes them cheap to use). A single tree is a one-tree
// ensemble.

// Pair is a distance-query pair.
type Pair struct {
	U, V graph.Node
}

// OracleIndex is the batched query service over an ensemble of indexed
// trees: Min answers the paper's headline estimate min_k dist_Tk(u,v) — an
// O(log n)-expected-stretch upper bound on dist_G(u,v) — in O(K·depth/4)
// word operations, and MinBatch fans a pair slice out over par.ForEach.
//
// Every tree's ancestor chains are packed into one block per graph node
// holding all K trees' rows back-to-back (shallower trees padded by
// repeating their root). A query then streams exactly two contiguous blocks
// — one per endpoint — instead of touching 2·K rows scattered across K
// separate indexes, which is what makes the batched path an order of
// magnitude faster than the parent walk even on a single core.
type OracleIndex struct {
	n int
	k int // ensemble size
	// stride is maxDepth+1: every weight row is padded to it, so one lookup
	// serves all trees.
	stride int
	// pw[t*stride + h] is the prefix weight from any leaf up to its height-h
	// ancestor in tree t (heights past the tree's depth repeat the full
	// leaf-to-root weight). A tree's edge weights depend on the level alone
	// (see Tree), so every leaf shares the row: the whole table is k·stride
	// floats that live in L1, and a query's memory traffic is the two packed
	// ancestor blocks.
	pw []float64
	// packed is the merge-height representation: a height-h ancestor's
	// cluster id is its offset within its level (node id minus the level's
	// first id; levels are contiguous, see Tree), packed into uint64 words.
	// Equal ids mean equal ancestors, so XOR comparisons find the merge
	// height. The heights split by lane width at `split`: heights ≥ split
	// have at most 65536 nodes in every tree, so their ids pack four 16-bit
	// lanes per word into packed — packed[(v*k+t)*words + (h-split)/4], lane
	// (h-split)%4 — while the low heights 0…split-1 (where levels can
	// approach n nodes) pack two 32-bit lanes per word into packedLo. Levels
	// only shrink going up (clusters merge), so one split serves every tree,
	// and for n ≤ 65536 the split is 0: the whole row is 16-bit lanes and
	// packedLo is empty. The merge height of a pair in one tree is a top-down
	// scan of XOR-compared words — high row first, then the low row — plus
	// one leading-zero count: O(depth/4) word ops, typically 2–3.
	packed []uint64
	// packedLo holds the 32-bit lanes of heights < split (nil when split=0).
	packedLo []uint64
	// split is the first height whose cluster ids fit 16-bit lanes: the
	// largest of treeSplit.
	split int
	// words is the padded word count per (node, tree) high row:
	// ceil((stride-split)/4).
	words int
	// loWords is the word count per (node, tree) low row: ceil(split/2).
	loWords int
	med     par.Pool[*[]float64]
	// treeSplit[t] is tree t's own lane split (laneSplit), from which a
	// patch re-derives split when it replaces some trees.
	treeSplit []int
}

// packedLaneMax is the largest level size a 16-bit lane can hold; heights
// with a larger level in some tree fall below the split and use 32-bit lanes.
const packedLaneMax = 1 << 16

// NewOracleIndex indexes every tree of the ensemble. All trees must embed
// the same node set and meet the layout contract (see Tree), and each must
// be structurally sound: leaves and parents in range, no parent cycle, every
// leaf at the same depth. A tree that breaks the contract is refused with
// the contract's error; one that is unsound, with an error naming the lowest
// graph node whose leaf-to-root walk finds the defect.
//
// Each tree's levels come from one pass over Level (levelStarts); a parallel
// walk up from every leaf then writes the leaf's packed words (writeTree),
// with no construction scratch beyond the level starts.
//
// NewOracleIndex is the one fresh pack, for the Embedder, snapshots and
// hand-built trees alike. A DynamicEnsemble update instead patches the
// current index with the rows of the trees it re-assembled (patch), through
// the same writer, and falls back to NewOracleIndex only when the layout
// moves.
func NewOracleIndex(trees []*Tree) (*OracleIndex, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("frt: oracle index needs ≥ 1 tree")
	}
	o := newIndex(len(trees[0].Leaf), len(trees))
	levels := make([]treeLevels, len(trees))
	o.treeSplit = make([]int, o.k)
	maxDepth := 0
	for i, t := range trees {
		if len(t.Leaf) != o.n {
			return nil, fmt.Errorf("frt: tree %d embeds %d nodes, tree 0 embeds %d", i, len(t.Leaf), o.n)
		}
		l, err := indexLevels(t)
		if err != nil {
			return nil, fmt.Errorf("frt: tree %d: %w", i, err)
		}
		levels[i], o.treeSplit[i] = l, l.laneSplit()
		maxDepth = max(maxDepth, l.depth)
	}
	o.stride = maxDepth + 1
	o.split = slices.Max(o.treeSplit)
	o.words = (o.stride - o.split + 3) / 4
	o.loWords = (o.split + 1) / 2
	o.packed = make([]uint64, o.n*o.k*o.words)
	if o.loWords > 0 {
		o.packedLo = make([]uint64, o.n*o.k*o.loWords)
	}
	o.pw = make([]float64, o.k*o.stride)
	for i, t := range trees {
		if err := o.writeTree(t, i, levels[i]); err != nil {
			return nil, fmt.Errorf("frt: tree %d: %w", i, err)
		}
	}
	return o, nil
}

// newIndex returns an empty index of k trees over n leaves.
func newIndex(n, k int) *OracleIndex {
	o := &OracleIndex{n: n, k: k}
	o.med.New = func() *[]float64 { ds := make([]float64, o.k); return &ds }
	return o
}

// treeLevels is what the index reads of one tree's layout: its level starts
// (levelStarts) and its depth, the index of leaf 0's level among them.
type treeLevels struct {
	starts []int32
	depth  int
}

// indexLevels checks t's layout contract and finds its depth.
func indexLevels(t *Tree) (treeLevels, error) {
	starts, err := t.levelStarts(nil)
	if err != nil {
		return treeLevels{}, err
	}
	if len(t.Leaf) == 0 || t.Leaf[0] < 0 || int(t.Leaf[0]) >= t.NumNodes() {
		return treeLevels{}, invalidTreeAt(0)
	}
	return treeLevels{starts, int(t.Level[0]) - int(t.Level[t.Leaf[0]])}, nil
}

// laneSplit returns the lowest height from which the tree's cluster ids fit
// 16-bit lanes: one above the highest height whose level holds more than
// packedLaneMax nodes, or 0.
func (l treeLevels) laneSplit() int {
	for li := 0; li <= l.depth; li++ {
		if l.starts[li+1]-l.starts[li] > packedLaneMax {
			return l.depth - li + 1
		}
	}
	return 0
}

// invalidTreeAt is the error for a tree whose parent chain from graph node
// v's leaf breaks.
func invalidTreeAt(v int) error {
	return fmt.Errorf("frt: tree is structurally invalid at graph node %d (run Validate for details)", v)
}

// writeTree writes tree ti's prefix-weight row and packed words (see the
// pw and packed field docs), overwriting whatever the rows held. The row
// sums the level weights bottom-up, Tree.Dist's summation order. Each
// leaf's walk to the root owns its leaf's words, so leaves run in parallel.
// The walk checks the tree's shape: the height-h ancestor must lie in the
// height-h level's id range, and the height-depth one must be the root.
// That catches leaves and parents out of range, parent cycles and leaves at
// another depth; the error names the lowest graph node whose walk fails.
// Lanes past the tree's depth, the root's lane and low-row padding lanes are
// 0, so padding never manufactures a difference.
func (o *OracleIndex) writeTree(t *Tree, ti int, l treeLevels) error {
	row := o.pw[ti*o.stride : (ti+1)*o.stride]
	row[0] = 0
	for h := 1; h < o.stride; h++ {
		row[h] = row[h-1]
		if h <= l.depth {
			row[h] += t.EdgeWeight[l.starts[l.depth-h+1]]
		}
	}
	n, k, split, words, loWords := o.n, o.k, o.split, o.words, o.loWords
	starts, depth, parent := l.starts, l.depth, t.Parent
	var bad atomic.Int64 // the lowest graph node whose walk fails, or n
	bad.Store(int64(n))
	par.ForEachChunk(n, func(start, end int) {
		for v := start; v < end; v++ {
			hi := o.packed[(v*k+ti)*words:][:words]
			lo := o.packedLo[(v*k+ti)*loWords:][:loWords]
			clear(hi)
			clear(lo)
			u, h := t.Leaf[v], 0
			for ; h < depth; h++ {
				first := starts[depth-h]
				if u < first || u >= starts[depth-h+1] {
					break
				}
				lane := uint64(u - first)
				if h < split {
					lo[h>>1] |= lane << (uint(h&1) * 32)
				} else {
					l := uint(h - split)
					hi[l>>2] |= lane << ((l & 3) * 16)
				}
				u = parent[u]
			}
			if h < depth || u != 0 {
				for cur := bad.Load(); int64(v) < cur && !bad.CompareAndSwap(cur, int64(v)); cur = bad.Load() {
				}
				return
			}
		}
	})
	if v := int(bad.Load()); v < n {
		return invalidTreeAt(v)
	}
	return nil
}

// NumTrees returns the ensemble size K.
func (o *OracleIndex) NumTrees() int { return o.k }

// NumLeaves returns the number of graph nodes served.
func (o *OracleIndex) NumLeaves() int { return o.n }

// MaxDepth returns the largest tree depth in the ensemble (queries cost
// O(NumTrees · MaxDepth/4) word operations).
func (o *OracleIndex) MaxDepth() int { return o.stride - 1 }

// Min returns the smallest tree distance over the ensemble, identical (to
// the last bit) to taking the minimum of Tree.Dist over the trees: the
// per-tree distances are the same prefix sums, and trees are folded in the
// same ascending order with the same strict comparison.
//
// Each tree's merge height — the first height at which the two ancestor
// rows agree; they agree at the shared root, and lockstep walks never
// separate once met — is found by XOR-comparing packed-lane words top-down
// and locating the highest differing lane with a leading-zero count. The
// loop is chosen from the index's shape: all-16-bit rows (every ensemble up
// to 65536 nodes) take a hand-inlined scan, split rows the per-tree
// TreeDist.
func (o *OracleIndex) Min(u, v graph.Node) float64 {
	if u == v {
		return 0
	}
	var best float64
	if o.split > 0 {
		for t := 0; t < o.k; t++ {
			if d := o.TreeDist(u, v, t); t == 0 || d < best {
				best = d
			}
		}
		return best
	}
	kw := o.k * o.words
	xu := o.packed[int(u)*kw : int(u)*kw+kw]
	xv := o.packed[int(v)*kw : int(v)*kw+kw]
	ps := o.pw
	off, woff := 0, 0
	// Both half-paths climb through identical level weights, so
	// d = ps[h] + ps[h], the same bits as Tree.Dist's two half-path sums.
	// The word scan is inlined by hand: the Go inliner refuses functions with loops, and 16 calls per
	// query are measurable on the serving path.
	for t := 0; t < o.k; t++ {
		h := 0
		for w := woff + o.words - 1; w >= woff; w-- {
			if x := xu[w] ^ xv[w]; x != 0 {
				h = (w-woff)*4 + (bits.Len64(x)-1)>>4 + 1
				break
			}
		}
		if d := ps[off+h] + ps[off+h]; t == 0 || d < best {
			best = d
		}
		off += o.stride
		woff += o.words
	}
	return best
}

// TreeDist returns the distance of u and v in tree t, bitwise
// Trees[t].Dist(u, v): twice the prefix weight at their merge height, 0 when
// u == v.
func (o *OracleIndex) TreeDist(u, v graph.Node, t int) float64 {
	if u == v {
		return 0
	}
	h := t*o.stride + o.height(u, v, t)
	return o.pw[h] + o.pw[h]
}

// height returns the merge height of u ≠ v in tree t: the 16-bit high row
// covers heights ≥ split, the 32-bit low row heights < split. If the high
// rows agree everywhere the scan drops into the low row, where distinct
// leaves guarantee a difference at height 0 (leaf clusters are singletons);
// unused low padding lanes are zero on both sides and can never fire. With
// a zero split, distinct leaves differ in the high row's word 0.
func (o *OracleIndex) height(u, v graph.Node, t int) int {
	bu, bv := (int(u)*o.k+t)*o.words, (int(v)*o.k+t)*o.words
	for w := o.words - 1; w >= 0; w-- {
		if x := o.packed[bu+w] ^ o.packed[bv+w]; x != 0 {
			return o.split + w*4 + (bits.Len64(x)-1)>>4 + 1
		}
	}
	lu, lv := (int(u)*o.k+t)*o.loWords, (int(v)*o.k+t)*o.loWords
	for w := o.loWords - 1; w >= 0; w-- {
		if x := o.packedLo[lu+w] ^ o.packedLo[lv+w]; x != 0 {
			return w*2 + (bits.Len64(x)-1)>>5 + 1
		}
	}
	return 0
}

// Median returns the median tree distance, identical to Ensemble.Median.
func (o *OracleIndex) Median(u, v graph.Node) float64 {
	ds := o.med.Get()
	m := o.median(u, v, *ds)
	o.med.Put(ds)
	return m
}

func (o *OracleIndex) median(u, v graph.Node, ds []float64) float64 {
	if u == v {
		return 0
	}
	o.perTreeDists(u, v, 0, o.k, ds)
	return MedianOf(ds)
}

// perTreeDists writes the tree distance of (u, v) in every tree t ∈ [lo, hi)
// to dst[t-lo]. The per-tree values are the exact summands Min folds and
// median sorts, so a caller that folds them in ascending tree order (or
// sorts a full gather) reproduces Min/Median bitwise — the contract the
// sharded router relies on to merge partial per-tree results server-side.
func (o *OracleIndex) perTreeDists(u, v graph.Node, lo, hi int, dst []float64) {
	for t := lo; t < hi; t++ {
		dst[t-lo] = o.TreeDist(u, v, t)
	}
}

// PerTreeBatch answers the partial-ensemble query of the sharded serving
// tier: for every pair it computes the individual tree distances of trees
// [lo, hi), pair-major (out[i*(hi-lo) + (t-lo)] is pair i in tree t). A
// router holding shards from several workers reassembles the full K-vector
// of a pair by concatenating the shards in ascending tree order; folding
// that vector with Min's strict < (or sorting it, for Median) reproduces the
// single-process OracleIndex answers bitwise. Like MinBatch, out is reused
// when it has capacity and the filled slice is returned.
func (o *OracleIndex) PerTreeBatch(pairs []Pair, lo, hi int, out []float64) ([]float64, error) {
	if lo < 0 || hi > o.k || lo >= hi {
		return nil, fmt.Errorf("frt: tree shard [%d, %d) outside ensemble of %d trees", lo, hi, o.k)
	}
	w := hi - lo
	out = sizeFor(out, len(pairs)*w)
	par.ForEach(len(pairs), func(i int) {
		o.perTreeDists(pairs[i].U, pairs[i].V, lo, hi, out[i*w:(i+1)*w])
	})
	return out, nil
}

// MinBatch answers Min for every pair, parallelised over par.ForEach. The
// result is written into out when it has sufficient capacity (a server can
// recycle response buffers); otherwise a fresh slice is allocated. Either
// way the filled slice is returned.
func (o *OracleIndex) MinBatch(pairs []Pair, out []float64) []float64 {
	out = sizeFor(out, len(pairs))
	par.ForEach(len(pairs), func(i int) {
		out[i] = o.Min(pairs[i].U, pairs[i].V)
	})
	return out
}

// MedianBatch answers Median for every pair, parallelised over par.ForEach
// with per-item scratch borrowed from an internal pool, so steady-state
// batches allocate nothing beyond the result slice.
func (o *OracleIndex) MedianBatch(pairs []Pair, out []float64) []float64 {
	out = sizeFor(out, len(pairs))
	par.ForEach(len(pairs), func(i int) {
		ds := o.med.Get()
		out[i] = o.median(pairs[i].U, pairs[i].V, *ds)
		o.med.Put(ds)
	})
	return out
}

// sizeFor returns out resliced to length n, reallocating only when the
// capacity is insufficient.
func sizeFor(out []float64, n int) []float64 {
	if cap(out) < n {
		return make([]float64, n)
	}
	return out[:n]
}
