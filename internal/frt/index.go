package frt

import (
	"fmt"
	"math/bits"

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
// the same node set, and each must be structurally sound: leaves and
// parents in range, no parent cycle, every leaf at the same depth. A tree
// that breaks any of these is refused, with an error naming the lowest
// graph node whose leaf-to-root walk finds the defect.
//
// Each tree is packed straight from its Parent, Leaf and EdgeWeight arrays,
// one tree at a time: a serial walk numbers the tree's clusters per height
// (clusterIDs), then a parallel walk up from every leaf writes the leaf's
// packed words and fills or checks its prefix weights. Construction scratch
// is two int32 per tree node of the largest tree, and no per-leaf ancestor
// table is built. The packing first assumes level-uniform weights; the
// first tree that breaks them restarts it with per-leaf weight rows.
func NewOracleIndex(trees []*Tree) (*OracleIndex, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("frt: oracle index needs ≥ 1 tree")
	}
	o := &OracleIndex{n: len(trees[0].Leaf), k: len(trees)}
	o.med.New = func() *[]float64 { ds := make([]float64, o.k); return &ds }
	// Cheap pre-pass: per-tree depths (for the padded stride) and per-height
	// cluster-count bounds (for the 16/32-bit lane split), both derivable
	// from the parent arrays alone. The depth walk checks only leaf 0's
	// chain; clusterIDs checks every leaf.
	depths := make([]int, len(trees))
	maxDepth, maxNodes := 0, 0
	for i, t := range trees {
		if len(t.Leaf) != o.n {
			return nil, fmt.Errorf("frt: tree %d embeds %d nodes, tree 0 embeds %d", i, len(t.Leaf), o.n)
		}
		d, ok := leafDepth(t)
		if !ok {
			return nil, fmt.Errorf("frt: tree %d: %w", i, fmt.Errorf("frt: broken parent chain at leaf 0 (run Validate for details)"))
		}
		depths[i] = d
		maxDepth = max(maxDepth, d)
		maxNodes = max(maxNodes, t.NumNodes())
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
	id := make([]int32, maxNodes)
	height := make([]int32, maxNodes)
	for {
		done, err := o.pack(trees, depths, id, height)
		if err != nil {
			return nil, err
		}
		if done {
			return o, nil
		}
		o.pwStep = o.k * o.stride
	}
}

// pack fills the packed words and the weight table from scratch, one tree
// at a time, with id and height as clusterIDs' scratch. With pwStep = 0 it
// returns false at the first tree whose level weights are not uniform,
// leaving the caller to restart with per-leaf rows.
func (o *OracleIndex) pack(trees []*Tree, depths []int, id, height []int32) (bool, error) {
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
		nn := t.NumNodes()
		if err := clusterIDs(t, depths[i], id[:nn], height[:nn]); err != nil {
			return false, fmt.Errorf("frt: tree %d: %w", i, err)
		}
		if !o.packTree(t, i, depths[i], id[:nn]) {
			return false, nil
		}
	}
	return true, nil
}

// invalidTreeAt is the error for a tree whose parent chain from graph node
// v's leaf breaks.
func invalidTreeAt(v int) error {
	return fmt.Errorf("frt: tree is structurally invalid at graph node %d (run Validate for details)", v)
}

// clusterIDs numbers t's nodes per height in first-seen order into id: for
// v = 0…n−1 it climbs from v's leaf to the first node already numbered, and
// a node's id is the number of same-height nodes numbered before it. Every
// ancestor of a numbered node is numbered, so a height-h node gets its id
// at the first leaf whose height-h ancestor it is — the equality-preserving
// renumbering the merge-height scan compares, independent of how the tree
// numbers its nodes. The walk also checks the tree's shape: leaves and
// parents in range, and every leaf at depth, which is leaf 0's depth. A
// node reached at a height other than the one it was numbered at closes a
// parent cycle or joins chains of unequal length. The error names the
// lowest graph node whose walk finds a defect.
func clusterIDs(t *Tree, depth int, id, height []int32) error {
	nn := len(id)
	for u := range id {
		id[u] = -1
	}
	next := make([]int32, depth+1)
	for v, u := range t.Leaf {
		for h := int32(0); ; h++ {
			if u < 0 || int(u) >= nn || int(h) > depth {
				return invalidTreeAt(v)
			}
			if id[u] >= 0 {
				if height[u] != h {
					return invalidTreeAt(v)
				}
				break
			}
			id[u], height[u] = next[h], h
			next[h]++
			if u = t.Parent[u]; u == -1 {
				if int(h) != depth {
					return invalidTreeAt(v)
				}
				break
			}
		}
	}
	return nil
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
// caller then falls back to the conservative bound n and clusterIDs
// reports the defect.
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

// packTree writes tree t's packed words (see the packed field doc) and its
// prefix weights, from the cluster ids clusterIDs numbered; the tree's
// structure is already checked. Each leaf's walk to the root owns its
// leaf's words, so leaves run in parallel, and every word is stored once.
// Lanes past the tree's depth are the root's id 0, and low-row padding lanes
// are 0 too, so padding never manufactures a difference. Prefix weights
// accumulate bottom-up, Tree.Dist's summation order. With per-leaf rows
// (pwStep > 0) each leaf writes its row, padded past the depth with the
// full leaf-to-root weight; otherwise every leaf's sums are checked against
// the shared row, leaf 0's, and packTree reports whether all matched
// bitwise.
func (o *OracleIndex) packTree(t *Tree, ti, depth int, id []int32) bool {
	shared := o.pw[ti*o.stride : (ti+1)*o.stride]
	if o.pwStep == 0 {
		u, acc := t.Leaf[0], 0.0
		for h := 1; h < o.stride; h++ {
			if h <= depth {
				acc += t.EdgeWeight[u]
				u = t.Parent[u]
			}
			shared[h] = acc
		}
	}
	split, k, words, loWords, perLeaf := o.split, o.k, o.words, o.loWords, o.pwStep > 0
	parent, weight := t.Parent, t.EdgeWeight
	return par.Reduce(o.n, true,
		func(v int) bool {
			hi := o.packed[(v*k+ti)*words:][:words]
			lo := o.packedLo[(v*k+ti)*loWords:][:loWords]
			pw := shared
			if perLeaf {
				pw = o.pw[v*o.pwStep+ti*o.stride:][:o.stride]
			}
			uniform := true
			u, acc, word := t.Leaf[v], 0.0, uint64(0)
			for h := 0; ; h++ {
				c := uint64(id[u])
				if h < split {
					word |= c << (uint(h&1) * 32)
					if h&1 == 1 || h == split-1 {
						lo[h>>1], word = word, 0
					}
				} else {
					l := uint(h - split)
					word |= c << ((l & 3) * 16)
					if l&3 == 3 {
						hi[l>>2], word = word, 0
					}
				}
				if perLeaf {
					pw[h] = acc
				} else if pw[h] != acc {
					uniform = false
				}
				if h == depth {
					break
				}
				acc += weight[u]
				u = parent[u]
			}
			if word != 0 { // the partial word holding height depth
				if depth < split {
					lo[depth/2] = word
				} else {
					hi[(depth-split)/4] = word
				}
			}
			if perLeaf {
				for h := depth + 1; h < len(pw); h++ {
					pw[h] = acc
				}
			}
			return uniform
		},
		func(a, b bool) bool { return a && b })
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
// scan, anything else the per-tree TreeDist.
func (o *OracleIndex) Min(u, v graph.Node) float64 {
	if u == v {
		return 0
	}
	var best float64
	if o.split > 0 || o.pwStep > 0 {
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

// TreeDist returns the distance of u and v in tree t, bitwise
// Trees[t].Dist(u, v): the prefix weights of both leaves at their merge
// height, 0 when u == v.
func (o *OracleIndex) TreeDist(u, v graph.Node, t int) float64 {
	if u == v {
		return 0
	}
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
