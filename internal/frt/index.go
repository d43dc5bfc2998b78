package frt

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// This file is the query layer over sampled FRT trees: TreeIndex answers
// single-tree distance queries in O(log depth) array lookups instead of the
// O(depth) pointer walk of Tree.Dist, and OracleIndex bundles an ensemble
// into a batched min-distance oracle — the serving-side counterpart of the
// construction pipeline (Embedder builds trees cheaply, OracleIndex makes
// them cheap to use).

// TreeIndex is a preprocessed FRT tree supporting pointer-free distance
// queries. It exploits the uniform leaf depth of FRT trees: every leaf has
// exactly depth+1 ancestors (itself included), so the ancestors and the
// prefix weights of all leaves pack into two flat arrays with one contiguous
// row per graph node. A query touches only the two rows of its endpoints —
// no pointer chasing through tree nodes scattered across the heap.
//
// Build cost is O(n·depth) time and memory; Dist is O(log depth): ancestor
// rows merge monotonically (once two lockstep walks meet they stay met), so
// the merge height is found by binary search.
type TreeIndex struct {
	tree   *Tree
	n      int // number of leaves (graph nodes)
	depth  int // levels from leaf to root; stride-1
	stride int // depth+1 entries per row
	// anc[v*stride+h] is the height-h ancestor of v's leaf (h=0 the leaf
	// itself, h=depth the root).
	anc []int32
	// pw[v*stride+h] is the total edge weight from v's leaf up to its
	// height-h ancestor, accumulated bottom-up — the same summation order as
	// Tree.Dist's walk, so results agree bitwise.
	pw []float64
}

// NewTreeIndex preprocesses t. It fails on structurally invalid trees
// (unequal leaf depths, out-of-range pointers, parent cycles) — the same
// defects Tree.Validate reports — rather than producing a lying index.
func NewTreeIndex(t *Tree) (*TreeIndex, error) {
	n := len(t.Leaf)
	if n == 0 || t.NumNodes() == 0 {
		return nil, fmt.Errorf("frt: cannot index an empty tree")
	}
	if len(t.EdgeWeight) < t.NumNodes() {
		return nil, fmt.Errorf("frt: tree has %d parents but %d edge weights", t.NumNodes(), len(t.EdgeWeight))
	}
	// Measure the depth of Leaf[0] with explicit bounds checks (Tree.Depth
	// assumes a valid tree; the index must not) — every other leaf is then
	// required to match it during the parallel fill.
	depth := 0
	for u := t.Leaf[0]; ; depth++ {
		if u < 0 || int(u) >= t.NumNodes() || depth > t.NumNodes() {
			return nil, fmt.Errorf("frt: broken parent chain at leaf 0 (run Validate for details)")
		}
		if t.Parent[u] == -1 {
			break
		}
		u = t.Parent[u]
	}
	stride := depth + 1
	x := &TreeIndex{
		tree:   t,
		n:      n,
		depth:  depth,
		stride: stride,
		anc:    make([]int32, n*stride),
		pw:     make([]float64, n*stride),
	}
	// Rows are independent; fill them in parallel. A structural defect found
	// by any worker is recorded (first writer wins) and reported after the
	// sweep.
	var badV atomic.Int32
	badV.Store(-1)
	par.ForEach(n, func(v int) {
		row := v * stride
		u := t.Leaf[v]
		if u < 0 || int(u) >= t.NumNodes() {
			badV.CompareAndSwap(-1, int32(v))
			return
		}
		x.anc[row] = u
		for h := 0; h < depth; h++ {
			p := t.Parent[u]
			if p < 0 || int(p) >= t.NumNodes() {
				badV.CompareAndSwap(-1, int32(v))
				return
			}
			x.pw[row+h+1] = x.pw[row+h] + t.EdgeWeight[u]
			x.anc[row+h+1] = p
			u = p
		}
		if t.Parent[u] != -1 {
			badV.CompareAndSwap(-1, int32(v)) // deeper than Leaf[0]: unequal depths
		}
	})
	if v := badV.Load(); v != -1 {
		return nil, fmt.Errorf("frt: tree is structurally invalid at graph node %d (run Validate for details)", v)
	}
	return x, nil
}

// Tree returns the tree the index was built from.
func (x *TreeIndex) Tree() *Tree { return x.tree }

// NumLeaves returns the number of graph nodes (leaves) indexed.
func (x *TreeIndex) NumLeaves() int { return x.n }

// Depth returns the uniform leaf depth of the indexed tree.
func (x *TreeIndex) Depth() int { return x.depth }

// Dist returns the tree distance between the leaves of u and v, bitwise
// identical to Tree.Dist, in O(log depth) lookups: binary search for the
// merge height h (the lowest height at which the ancestor rows agree), then
// one prefix-weight load per endpoint.
func (x *TreeIndex) Dist(u, v graph.Node) float64 {
	if u == v {
		return 0
	}
	ru, rv := int(u)*x.stride, int(v)*x.stride
	h := mergeHeight(x.anc[ru:ru+x.stride], x.anc[rv:rv+x.stride])
	return x.pw[ru+h] + x.pw[rv+h]
}

// MergeHeight returns the lowest height at which the ancestor chains of u's
// and v's leaves meet — the height of their lowest common ancestor — in
// O(log depth) lookups. MergeHeight(v, v) is 0.
func (x *TreeIndex) MergeHeight(u, v graph.Node) int {
	if u == v {
		return 0
	}
	ru, rv := int(u)*x.stride, int(v)*x.stride
	return mergeHeight(x.anc[ru:ru+x.stride], x.anc[rv:rv+x.stride])
}

// Ancestor returns the tree node that is the height-h ancestor of v's leaf
// (h=0 the leaf itself, h=Depth() the root). Combined with MergeHeight it
// exposes the tree decomposition to the application tier: the tree path
// between two leaves is their ancestor chains up to the merge height, and
// Ancestor(u, MergeHeight(u, v)) is the LCA. Panics if h is out of range.
func (x *TreeIndex) Ancestor(v graph.Node, h int) int32 {
	if h < 0 || h > x.depth {
		panic("frt: ancestor height out of range")
	}
	return x.anc[int(v)*x.stride+h]
}

// LCA returns the lowest common ancestor (as a tree node) of the leaves of
// u and v.
func (x *TreeIndex) LCA(u, v graph.Node) int32 {
	return x.anc[int(u)*x.stride+x.MergeHeight(u, v)]
}

// Pair is a distance-query pair.
type Pair struct {
	U, V graph.Node
}

// OracleIndex is the batched query service over an ensemble of indexed
// trees: Min answers the paper's headline estimate min_k dist_Tk(u,v) — an
// O(log n)-expected-stretch upper bound on dist_G(u,v) — in O(K·depth/4)
// word operations, and MinBatch fans a pair slice out over par.ForEach.
//
// The per-tree TreeIndex rows are repacked into one block per graph node
// holding all K trees' ancestor rows back-to-back (shallower trees padded by
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
	// pw[v*pwStep + t*stride + h] is the prefix weight from v's leaf up to
	// its height-h ancestor in tree t (heights past the tree's depth repeat
	// the full leaf-to-root weight). pwStep is 0 when every tree is
	// level-uniform — all leaves of a tree see the same edge weight at each
	// height, which is how BuildTree constructs trees (the level-i edge
	// weight 2β2^i does not depend on the cluster) — so the whole table is
	// k·stride floats that live in L1 and a query's memory traffic is the
	// two packed ancestor blocks. Trees with non-uniform level weights
	// (possible for trees deserialised from elsewhere) need one row per leaf:
	// pwStep is then k·stride.
	pw     []float64
	pwStep int
	// packed is the merge-height representation: ancestors are renumbered
	// into per-height dense cluster ids (equality-preserving, so XOR
	// comparisons find the merge height) and packed into uint64 words. The
	// heights split by lane width at `split`: heights ≥ split have at most
	// 65536 distinct clusters in every tree, so their ids pack four 16-bit
	// lanes per word into packed — packed[(v*k+t)*words + (h-split)/4], lane
	// (h-split)%4 — while the low heights 0…split-1 (where cluster counts can
	// approach n) pack two 32-bit lanes per word into packedLo. Cluster
	// counts only shrink going up (clusters merge), so one split serves
	// every tree, and for n ≤ 65536 the split is 0: the whole row is 16-bit
	// lanes and packedLo is empty. The merge height of a pair in one tree is
	// a top-down scan of XOR-compared words — high row first, then the low
	// row — plus one leading-zero count: O(depth/4) word ops, typically 2–3.
	packed []uint64
	// packedLo holds the 32-bit lanes of heights < split (nil when split=0).
	packedLo []uint64
	// split is the first height whose cluster ids fit 16-bit lanes.
	split int
	// words is the padded word count per (node, tree) high row:
	// ceil((stride-split)/4).
	words int
	// loWords is the word count per (node, tree) low row: ceil(split/2).
	loWords int
	med     par.Pool[*[]float64]
}

// packedLaneMax is the largest per-height cluster count a 16-bit lane can
// hold; heights with more clusters in some tree fall below the split and
// use 32-bit lanes.
const packedLaneMax = 1 << 16

// NewOracleIndex indexes every tree of the ensemble. All trees must embed
// the same node set.
//
// Construction streams over the trees one at a time: each tree's TreeIndex
// is built, packed, and dropped before the next tree is touched, so the
// construction peak holds one n·stride index instead of K of them — at
// n = 2^20 and K = 16 the difference between ~0.3 GB and ~5 GB of scratch.
// The stream first assumes level-uniform weights; the first tree that
// breaks them restarts it with per-leaf weight rows.
func NewOracleIndex(trees []*Tree) (*OracleIndex, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("frt: oracle index needs ≥ 1 tree")
	}
	o := &OracleIndex{n: len(trees[0].Leaf), k: len(trees)}
	o.med.New = func() *[]float64 { ds := make([]float64, o.k); return &ds }
	// Cheap pre-pass: per-tree depths (for the padded stride) and per-height
	// cluster-count bounds (for the 16/32-bit lane split), both derivable
	// from the parent arrays alone — no TreeIndex needed. Structural defects
	// are NOT diagnosed here; the streaming loop's NewTreeIndex reports them.
	depths := make([]int, len(trees))
	maxDepth := 0
	for i, t := range trees {
		if len(t.Leaf) != o.n {
			return nil, fmt.Errorf("frt: tree %d embeds %d nodes, tree 0 embeds %d", i, len(t.Leaf), o.n)
		}
		d, ok := leafDepth(t)
		if !ok {
			return nil, fmt.Errorf("frt: tree %d: %w", i, fmt.Errorf("frt: broken parent chain at leaf 0 (run Validate for details)"))
		}
		depths[i] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	o.stride = maxDepth + 1
	// split = lowest height whose cluster count fits a 16-bit lane in every
	// tree. Distinct height-h ancestors of the n leaves number at most
	// min(n, nodes at the matching tree level), so for n ≤ 65536 the split
	// is always 0.
	if o.n > packedLaneMax {
		bound := make([]int, o.stride)
		for i, t := range trees {
			counts := treeLevelCounts(t, depths[i])
			for h := 0; h < o.stride; h++ {
				c := o.n
				if counts != nil && h <= depths[i] && int(counts[h]) < c {
					c = int(counts[h])
				} else if counts != nil && h > depths[i] {
					c = 1 // padded heights repeat the root
				}
				if c > bound[h] {
					bound[h] = c
				}
			}
		}
		for h := o.stride - 1; h >= 0; h-- {
			if bound[h] > packedLaneMax {
				o.split = h + 1
				break
			}
		}
	}
	o.words = (o.stride - o.split + 3) / 4
	o.loWords = (o.split + 1) / 2
	for {
		done, err := o.stream(trees)
		if err != nil {
			return nil, err
		}
		if done {
			return o, nil
		}
		o.pwStep = o.k * o.stride
	}
}

// stream fills the packed words and the weight table from scratch, one tree
// at a time. With pwStep = 0 it returns false at the first tree whose level
// weights are not uniform, leaving the caller to restart with per-leaf rows.
func (o *OracleIndex) stream(trees []*Tree) (bool, error) {
	o.packed = make([]uint64, o.n*o.k*o.words)
	if o.loWords > 0 {
		o.packedLo = make([]uint64, o.n*o.k*o.loWords)
	}
	rows := 1
	if o.pwStep > 0 {
		rows = o.n
	}
	o.pw = make([]float64, rows*o.k*o.stride)
	for i, t := range trees {
		x, err := NewTreeIndex(t)
		if err != nil {
			return false, fmt.Errorf("frt: tree %d: %w", i, err)
		}
		o.packTree(x, i)
		if o.pwStep > 0 {
			par.ForEach(o.n, func(v int) {
				padRow(o.pw[v*o.pwStep+i*o.stride:][:o.stride], x.pw[v*x.stride:(v+1)*x.stride])
			})
			continue
		}
		row := o.pw[i*o.stride : (i+1)*o.stride]
		padRow(row, x.pw[:x.stride]) // leaf 0's row
		if !o.uniformWeights(x, row) {
			return false, nil
		}
	}
	return true, nil
}

// padRow copies one prefix-weight row into dst and pads the heights past
// the tree's depth with its full leaf-to-root weight.
func padRow(dst, src []float64) {
	copy(dst, src)
	for h := len(src); h < len(dst); h++ {
		dst[h] = src[len(src)-1]
	}
}

// leafDepth measures the parent-chain length of Leaf[0] with explicit
// bounds and cycle guards, reporting failure instead of diverging on a
// broken tree.
func leafDepth(t *Tree) (int, bool) {
	if len(t.Leaf) == 0 || t.NumNodes() == 0 || len(t.EdgeWeight) < t.NumNodes() {
		return 0, false
	}
	depth := 0
	for u := t.Leaf[0]; ; depth++ {
		if u < 0 || int(u) >= t.NumNodes() || depth > t.NumNodes() {
			return 0, false
		}
		if t.Parent[u] == -1 {
			return depth, true
		}
		u = t.Parent[u]
	}
}

// treeLevelCounts returns the number of tree nodes at each height (distance
// below depth), an upper bound on the distinct height-h ancestors the
// packed renumbering can produce. It returns nil on structurally suspect
// trees (cycles, dangling parents, nodes deeper than the leaves); the
// caller then falls back to the conservative bound n and the streaming
// loop's validation reports the defect.
func treeLevelCounts(t *Tree, depth int) []int32 {
	nn := t.NumNodes()
	d := make([]int32, nn) // depth from the root; -1 = unknown
	for i := range d {
		d[i] = -1
	}
	counts := make([]int32, depth+1)
	stack := make([]int32, 0, 64)
	for u := 0; u < nn; u++ {
		if d[u] != -1 {
			continue
		}
		stack = stack[:0]
		v := int32(u)
		for d[v] == -1 {
			stack = append(stack, v)
			if len(stack) > nn {
				return nil // parent cycle
			}
			p := t.Parent[v]
			if p == -1 {
				break
			}
			if p < 0 || int(p) >= nn {
				return nil
			}
			v = p
		}
		base := int32(-1) // unwinding starts at the root (depth 0)
		if d[v] != -1 {
			base = d[v] // unwinding starts below an already-resolved node
		}
		for i := len(stack) - 1; i >= 0; i-- {
			base++
			d[stack[i]] = base
		}
	}
	for u := 0; u < nn; u++ {
		h := int32(depth) - d[u]
		if h < 0 {
			return nil // deeper than the leaves: invalid FRT tree
		}
		counts[h]++
	}
	return counts
}

// uniformWeights reports whether every leaf's prefix-weight row in x
// matches the shared row (leaf 0's, padded) bitwise.
func (o *OracleIndex) uniformWeights(x *TreeIndex, row []float64) bool {
	return par.Reduce(o.n, true,
		func(v int) bool {
			for h, w := range x.pw[v*x.stride : (v+1)*x.stride] {
				if row[h] != w {
					return false
				}
			}
			return true
		},
		func(a, b bool) bool { return a && b })
}

// packTree renumbers one tree's per-height clusters into dense ids and
// packs them into the split-lane words (see the packed field doc).
// Renumbering is equality-preserving per (tree, height) — first-seen order
// over v = 0…n−1, independent of parallel width — which is all the
// merge-height scan compares. High-row lanes past the tree's depth repeat
// the root id, and low-row padding lanes stay zero, so padding never
// manufactures a difference. Parallelism is per word column: each column
// owns disjoint output words, renumbering its 2 or 4 heights with private
// scratch.
func (o *OracleIndex) packTree(x *TreeIndex, t int) {
	nn := x.tree.NumNodes()
	packColumn := func(heights []int, write func(v int, lane int, id uint32)) {
		id := make([]uint32, nn)
		stamp := make([]int32, nn)
		for i := range stamp {
			stamp[i] = -1
		}
		for lane, h := range heights {
			hEff := h
			if hEff > x.depth {
				hEff = x.depth
			}
			next := uint32(0)
			for v := 0; v < o.n; v++ {
				a := x.anc[v*x.stride+hEff]
				if stamp[a] != int32(lane) {
					stamp[a] = int32(lane)
					id[a] = next
					next++
				}
				write(v, lane, id[a])
			}
		}
	}
	par.ForEach(o.loWords+o.words, func(w int) {
		if w < o.loWords {
			// Low column w: heights 2w, 2w+1 (the latter only if < split).
			heights := []int{2 * w}
			if 2*w+1 < o.split {
				heights = append(heights, 2*w+1)
			}
			packColumn(heights, func(v, lane int, cid uint32) {
				o.packedLo[(v*o.k+t)*o.loWords+w] |= uint64(cid) << (uint(lane) * 32)
			})
			return
		}
		// High column: 4 heights starting at split + 4*(w - loWords).
		hw := w - o.loWords
		heights := make([]int, 4)
		for l := range heights {
			heights[l] = o.split + hw*4 + l
		}
		packColumn(heights, func(v, lane int, cid uint32) {
			o.packed[(v*o.k+t)*o.words+hw] |= uint64(cid) << (uint(lane) * 16)
		})
	})
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
// loop is chosen from the index's shape: 16-bit rows over level-uniform
// trees (every BuildTree ensemble up to 65536 nodes) take a hand-inlined
// scan, anything else the per-tree treeDist helper.
func (o *OracleIndex) Min(u, v graph.Node) float64 {
	if u == v {
		return 0
	}
	var best float64
	if o.split > 0 || o.pwStep > 0 {
		for t := 0; t < o.k; t++ {
			if d := o.treeDist(u, v, t); t == 0 || d < best {
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
	// d = ps[h] + ps[h] — the same bits as the two per-leaf prefix weights —
	// and the query never touches a per-leaf table. The word scan is inlined
	// by hand: the Go inliner refuses functions with loops, and 16 calls per
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

// treeDist returns the distance of u ≠ v in tree t: the prefix weights of
// both leaves at their merge height.
func (o *OracleIndex) treeDist(u, v graph.Node, t int) float64 {
	h := t*o.stride + o.height(u, v, t)
	return o.pw[int(u)*o.pwStep+h] + o.pw[int(v)*o.pwStep+h]
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

// mergeHeight binary-searches one int32 ancestor row pair for the first
// height at which they agree (TreeIndex's merge-height search).
func mergeHeight(au, av []int32) int {
	lo, hi := 0, len(au)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if au[mid] == av[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
	if u == v {
		for i := range dst[: hi-lo : hi-lo] {
			dst[i] = 0
		}
		return
	}
	for t := lo; t < hi; t++ {
		dst[t-lo] = o.treeDist(u, v, t)
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
