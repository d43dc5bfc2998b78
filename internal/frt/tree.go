package frt

import (
	"fmt"
	"math"
	"slices"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Tree is a sampled FRT tree: a hierarchy of clusters whose leaves are the
// graph nodes (§7.1 step 4). Tree nodes are dense integers; index 0 is the
// root.
//
// Every leaf sits at the same depth. The edge connecting a level-i cluster
// to its level-(i+1) parent has weight 2·β·2^i — twice the paper's β2^i.
// The doubling is a deliberate implementation choice: with edge weight
// exactly β2^i, dominance dist_T ≥ dist_H can be violated by an additive
// O(β·2^imin) term at the truncated bottom of the hierarchy, whereas with
// the doubled weights dominance holds unconditionally (if u, v first differ
// at level i they share a center at level i+1, so dist_H(u,v) ≤ 2β2^{i+1},
// while dist_T(u,v) = 2·Σ_{j≤i} 2β2^j = 4β(2^{i+1}−2^imin) ≥ 2β2^{i+1}).
// It costs only a factor 2 in the upper bound, so the expected stretch
// remains O(log n).
//
// Layout contract. BuildTree stores a tree so that it can be indexed by
// offsets, and Validate refuses one that is stored otherwise:
//   - the root is tree node 0;
//   - Level is non-increasing in the node id and drops by at most one from
//     one id to the next, so each level is one contiguous id range, taken
//     top-down;
//   - every non-root node at a level has that level's one EdgeWeight.
//
// OracleIndex packs a node's offset within its level as its cluster id, and
// the k-median tree DP prices a climb by level alone; both rely on it.
type Tree struct {
	// Parent[t] is the parent tree node of t, or -1 for the root.
	Parent []int32
	// EdgeWeight[t] is the weight of the edge from t to its parent (0 for
	// the root).
	EdgeWeight []float64
	// Center[t] is the "leading" graph node of the cluster, i.e. v_i of the
	// suffix (v_i, …, v_k) the tree node represents (§7.5 identifies tree
	// nodes with their leading nodes for path reconstruction).
	Center []graph.Node
	// Level[t] is the level index i of the cluster (imin ≤ i ≤ imax).
	Level []int32
	// Leaf[v] is the leaf tree node of graph node v.
	Leaf []int32
	// Beta is the random scale β ∈ [1, 2) the tree was drawn with.
	Beta float64
}

// NumNodes returns the number of tree nodes.
func (t *Tree) NumNodes() int { return len(t.Parent) }

// Depth returns the number of levels from leaf to root (every leaf has the
// same depth). An empty tree has depth 0.
func (t *Tree) Depth() int {
	if len(t.Leaf) == 0 {
		return 0
	}
	d := 0
	for u := t.Leaf[0]; u != -1; u = t.Parent[u] {
		d++
	}
	return d - 1
}

// Dist returns the tree distance between the leaves of graph nodes u and v:
// the weight of the unique tree path between them. Both leaves are at equal
// depth, so the walk climbs in lockstep until the paths merge. The two
// half-paths are summed separately, bottom-up, so the result is bitwise
// identical to OracleIndex.TreeDist, which doubles the level weights' prefix
// sum.
//
// On a tree violating the uniform-leaf-depth invariant (a structural error
// that Validate reports) Dist returns +Inf rather than panicking.
func (t *Tree) Dist(u, v graph.Node) float64 {
	if u == v {
		return 0
	}
	a, b := t.Leaf[u], t.Leaf[v]
	var du, dv float64
	for a != b {
		if a == -1 || b == -1 {
			return math.Inf(1) // leaves at unequal depth; see Validate
		}
		du += t.EdgeWeight[a]
		dv += t.EdgeWeight[b]
		a, b = t.Parent[a], t.Parent[b]
	}
	return du + dv
}

// Validate checks the structural invariants of the tree: consistent array
// lengths, a single root, acyclic parent pointers, leaves in range and at
// uniform depth, positive edge weights, centers consistent with levels, and
// the layout contract (see Tree). It returns nil if all hold; it never
// panics, so it is safe to call on trees assembled from untrusted input
// (ReadSnapshot relies on this).
func (t *Tree) Validate() error {
	n := len(t.Leaf)
	if t.NumNodes() == 0 {
		return fmt.Errorf("empty tree")
	}
	if len(t.EdgeWeight) != t.NumNodes() || len(t.Center) != t.NumNodes() || len(t.Level) != t.NumNodes() {
		return fmt.Errorf("inconsistent array lengths: %d parents, %d weights, %d centers, %d levels",
			t.NumNodes(), len(t.EdgeWeight), len(t.Center), len(t.Level))
	}
	roots := 0
	for u, p := range t.Parent {
		if p < -1 || int(p) >= t.NumNodes() {
			return fmt.Errorf("tree node %d: parent %d out of range", u, p)
		}
		if int32(u) == p {
			return fmt.Errorf("tree node %d is its own parent", u)
		}
		if p == -1 {
			roots++
			if t.EdgeWeight[u] != 0 {
				return fmt.Errorf("root with non-zero edge weight")
			}
			continue
		}
		// The negated comparison also rejects NaN, which would otherwise
		// slip past a plain <= 0 test and poison every distance query.
		if !(t.EdgeWeight[u] > 0) || math.IsInf(t.EdgeWeight[u], 1) {
			return fmt.Errorf("tree node %d: edge weight %v not positive and finite", u, t.EdgeWeight[u])
		}
		if t.Level[p] != t.Level[u]+1 {
			return fmt.Errorf("tree node %d: level %d but parent level %d", u, t.Level[u], t.Level[p])
		}
	}
	if roots != 1 {
		return fmt.Errorf("%d roots, want 1", roots)
	}
	depth := -1
	for v := 0; v < n; v++ {
		if t.Leaf[v] < 0 || int(t.Leaf[v]) >= t.NumNodes() {
			return fmt.Errorf("leaf of %d out of range: %d", v, t.Leaf[v])
		}
		d := 0
		for u := t.Leaf[v]; u != -1; u = t.Parent[u] {
			d++
			if d > t.NumNodes() {
				return fmt.Errorf("cycle in parent pointers")
			}
		}
		if depth == -1 {
			depth = d
		} else if d != depth {
			return fmt.Errorf("leaf depths differ: %d vs %d", d, depth)
		}
		if t.Center[t.Leaf[v]] != graph.Node(v) {
			return fmt.Errorf("leaf of %d has center %d", v, t.Center[t.Leaf[v]])
		}
	}
	var buf [64]int32 // 63 levels, a distance ratio up to about 2^61, need no allocation
	_, err := t.levelStarts(buf[:0])
	return err
}

// levelStarts checks the layout contract (see Tree) and returns where the
// levels start: the li-th level from the top occupies tree ids
// [starts[li], starts[li+1]), and the last entry is NumNodes. The starts
// overwrite buf when it has room for them, else one slice is allocated. It
// reads only Parent[0], Level and EdgeWeight, so it is safe on a tree that
// Validate would refuse for other reasons.
func (t *Tree) levelStarts(buf []int32) ([]int32, error) {
	nn := t.NumNodes()
	if nn == 0 || len(t.Level) != nn || len(t.EdgeWeight) != nn {
		return nil, fmt.Errorf("%d parents, %d levels, %d weights: need equal and non-zero", nn, len(t.Level), len(t.EdgeWeight))
	}
	if t.Parent[0] != -1 {
		return nil, fmt.Errorf("tree node 0 is not the root")
	}
	// A tree that meets the contract has Level[0]−Level[nn−1]+1 ≤ nn levels.
	span := int64(t.Level[0]) - int64(t.Level[nn-1])
	if c := int(min(max(span, 0), int64(nn-1))) + 2; cap(buf) < c {
		buf = make([]int32, 0, c)
	}
	starts := append(buf[:0], 0)
	for u := 1; u < nn; u++ {
		switch int64(t.Level[u-1]) - int64(t.Level[u]) {
		case 0:
			if u > 1 && t.EdgeWeight[u] != t.EdgeWeight[u-1] {
				return nil, fmt.Errorf("tree node %d: edge weight %v differs from its level's %v", u, t.EdgeWeight[u], t.EdgeWeight[u-1])
			}
		case 1:
			starts = append(starts, int32(u))
		default:
			return nil, fmt.Errorf("tree node %d: level %d after level %d, not stored top-down", u, t.Level[u], t.Level[u-1])
		}
	}
	return append(starts, int32(nn)), nil
}

// BuildTree assembles the FRT tree from LE lists (Lemma 7.2). lists[v] must
// be the complete LE list of node v w.r.t. a distance function on which the
// construction is to be performed (the distances of H in the main pipeline),
// as a node-keyed DistMap (sorted by node ID, as Order.Filter returns it);
// order must be the order the lists were filtered with; beta is the random
// scale β ∈ [1, 2).
//
// BuildTree relabels the lists to rank keys and runs the rank-keyed builder
// the package's own fixpoints call directly (see the package doc).
func BuildTree(lists []semiring.DistMap, order *Order, beta float64) (*Tree, error) {
	n := len(lists)
	if n == 0 {
		return nil, fmt.Errorf("frt: no LE lists")
	}
	rk, err := order.keys(n)
	if err != nil {
		return nil, err
	}
	for v, l := range lists {
		for i := 0; i < l.Len(); i++ {
			if w := l.Node(i); w < 0 || int(w) >= n {
				return nil, fmt.Errorf("frt: LE list of %d holds node %d outside 0..%d", v, w, n-1)
			}
		}
	}
	ranked := make([]semiring.DistMap, n)
	par.ForEach(n, func(v int) { ranked[v] = lists[v].Relabel(rk.Key) })
	return buildTreeRanked(ranked, rk, beta)
}

// buildTreeRanked is BuildTree on rank-keyed LE lists: the full build, which
// is assembleTree with every row read.
func buildTreeRanked(lists []semiring.DistMap, rk RankKeys, beta float64) (*Tree, error) {
	t, _, err := assembleTree(lists, rk, beta, treePatch{})
	return t, err
}

// rowRange is the distance range of some LE lists: lo is their smallest
// non-zero distance (+Inf if every list holds only its own node) and hi
// their largest.
type rowRange struct{ lo, hi float64 }

// rangeBlock is the number of consecutive rows one stored rowRange covers.
// Blocks keep the ranges a live tree retains at 1 B per node; a patch
// re-ranges a changed row's whole block, two list entries per row.
const rangeBlock = 16

func joinRanges(a, b rowRange) rowRange { return rowRange{min(a.lo, b.lo), max(a.hi, b.hi)} }

// treePatch is what a re-assembly may reuse: the tree built before the
// lists changed with its block ranges, and the rows whose lists differ from
// the ones it was built from. The zero value is a full build.
type treePatch struct {
	old    *Tree
	ranges []rowRange
	rows   []graph.Node
}

// assembly reports how assembleTree read its lists.
type assembly struct {
	// read is the number of lists read into the center table.
	read int
	// full is set when every list was read: a full build, or a patch whose
	// level range moved.
	full bool
	// ranges is the tree's rowRange per block of rangeBlock rows, for the
	// next patch.
	ranges []rowRange
}

// treeScratch is the n-sized working memory of one tree assembly, pooled so
// that the trees of an ensemble build or an update batch reuse it. Between
// uses head is all −1 and changed all false.
type treeScratch struct {
	n       int
	changed []bool
	centers []graph.Node // level-major center table, levelCount·n
	head    []int32
	next    []int32
	parent  []int32
	center  []graph.Node
	// The finished levels' parents and centers, concatenated.
	allParent []int32
	allCenter []graph.Node
}

var treeScratchPool = par.Pool[*treeScratch]{New: func() *treeScratch { return &treeScratch{} }}

// getTreeScratch returns pooled scratch sized for n nodes.
func getTreeScratch(n int) *treeScratch {
	s := treeScratchPool.Get()
	if s.n != n {
		*s = treeScratch{
			n:       n,
			changed: make([]bool, n),
			head:    make([]int32, n),
			next:    make([]int32, n),
			parent:  make([]int32, n),
			center:  make([]graph.Node, n),
		}
		for c := range s.head {
			s.head[c] = -1
		}
	}
	return s
}

// assembleTree builds the FRT tree of rank-keyed LE lists. In key order an
// LE list's distances strictly decrease (the Staircase invariant), so entry
// 0 is the farthest and the last entry is v itself at distance 0.
//
// For each level i with radius r_i = β·2^i, node v's level-i center is
// v_i = min{w | dist(v,w) ≤ r_i}: the first entry with distance ≤ r_i,
// mapped back to its node through rk.Node. The level range [imin, imax] is
// chosen so that r_imin is below the smallest non-zero LE distance (leaf
// clusters are singletons) and r_imax reaches every node's farthest LE
// entry (a single root, centered at the rank-0 node).
//
// The level range is reduced from per-block rowRanges, which the assembly
// returns. A patch passes p.old's and re-ranges only the blocks holding a
// changed row.
//
// A node's chain of centers depends on its own list and the level range
// alone. So a patch (p.old non-nil) reads only p.rows' lists, and takes
// every other node's centers off p.old's leaf-to-root chain, provided the
// level range is p.old's; when it moved, every list is read. The tree is
// byte-identical to a full build of the same lists either way.
func assembleTree(lists []semiring.DistMap, rk RankKeys, beta float64, p treePatch) (*Tree, assembly, error) {
	n := len(lists)
	if n == 0 {
		return nil, assembly{}, fmt.Errorf("frt: no LE lists")
	}
	if beta < 1 || beta >= 2 {
		return nil, assembly{}, fmt.Errorf("frt: beta %v outside [1,2)", beta)
	}
	s := getTreeScratch(n)
	defer treeScratchPool.Put(s)
	built := assembly{ranges: make([]rowRange, (n+rangeBlock-1)/rangeBlock)}
	scan := len(built.ranges) // blocks to re-range
	block := func(i int) int { return i }
	if p.old != nil {
		copy(built.ranges, p.ranges)
		blocks := make([]int, len(p.rows))
		for i, v := range p.rows {
			s.changed[v] = true
			blocks[i] = int(v) / rangeBlock
		}
		defer func() {
			for _, v := range p.rows {
				s.changed[v] = false
			}
		}()
		slices.Sort(blocks)
		blocks = slices.Compact(blocks)
		scan, block = len(blocks), func(i int) int { return blocks[i] }
	}

	// Validate and range the rows of the scanned blocks in parallel.
	// Validation failures record the lowest offending node, so the error
	// matches a serial scan's; blocks a patch does not scan hold only rows
	// that were valid when p.old was built.
	type invalid struct {
		empty int // lowest node with an empty list, or n
		self  int // lowest node whose list lacks self@0, or n
	}
	none := rowRange{lo: semiring.Inf}
	bad := par.Reduce(scan, invalid{n, n},
		func(i int) invalid {
			b := block(i)
			bad, r := invalid{n, n}, none
			for v := b * rangeBlock; v < min(n, (b+1)*rangeBlock); v++ {
				l := lists[v]
				last := l.Len() - 1
				switch {
				case last < 0:
					bad.empty = min(bad.empty, v)
				case l.Node(last) != rk.Key[v] || l.Dist(last) != 0:
					bad.self = min(bad.self, v)
				case last > 0:
					r = joinRanges(r, rowRange{l.Dist(last - 1), l.Dist(0)})
				}
			}
			built.ranges[b] = r
			return bad
		},
		func(a, b invalid) invalid { return invalid{min(a.empty, b.empty), min(a.self, b.self)} })
	if bad.empty < n && bad.empty <= bad.self {
		return nil, assembly{}, fmt.Errorf("frt: empty LE list at node %d", bad.empty)
	}
	if bad.self < n {
		return nil, assembly{}, fmt.Errorf("frt: LE list of %d lacks self at distance 0", bad.self)
	}
	// min and max are order-free, so the range is identical at any
	// parallel width.
	span := none
	for _, r := range built.ranges {
		span = joinRanges(span, r)
	}
	dmin, dmax := span.lo, span.hi
	if semiring.IsInf(dmin) {
		dmin = 1 // single-node graph: any scale works
	}
	if dmax <= 0 {
		dmax = dmin
	}
	// r_i = beta * 2^i. Choose imin with r_imin < dmin and imax with
	// r_imax ≥ dmax.
	imin := int(math.Floor(math.Log2(dmin / beta)))
	for beta*math.Pow(2, float64(imin)) >= dmin {
		imin--
	}
	imax := int(math.Ceil(math.Log2(dmax / beta)))
	for beta*math.Pow(2, float64(imax)) < dmax {
		imax++
	}
	old := p.old
	if old != nil && (int(old.Level[0]) != imax || int(old.Level[old.Leaf[0]]) != imin) {
		old = nil // the level range moved: read every list
	}
	built.read, built.full = n, old == nil
	if old != nil {
		built.read = len(p.rows)
	}

	// Every node's center at every level, level-major: centers[li*n+v] is
	// v's center at level imax−li, the first entry of its list within
	// r = β·2^(imax−li). The radii strictly shrink with li, so one pass per
	// node reads its list once with a cursor that only moves right: O(len +
	// levels) per node, and the nodes are independent. The last entry is
	// self at distance 0 ≤ r, so the cursor never overruns. A node whose
	// list did not change reads its chain off the old tree instead, leaf
	// (level imin) to root.
	levelCount := imax - imin + 1
	radius := make([]float64, levelCount)
	for li := range radius {
		radius[li] = beta * math.Pow(2, float64(imax-li))
	}
	s.centers = slices.Grow(s.centers[:0], levelCount*n)[:levelCount*n]
	centers := s.centers
	par.ForEach(n, func(v int) {
		if old != nil && !s.changed[v] {
			u := old.Leaf[v]
			for li := levelCount - 1; li >= 0; li-- {
				centers[li*n+v] = old.Center[u]
				u = old.Parent[u]
			}
			return
		}
		l := lists[v]
		j := 0
		for li, r := range radius {
			for l.Dist(j) > r {
				j++
			}
			centers[li*n+v] = rk.Node[l.Node(j)]
		}
	})

	// Root: all nodes share the center at level imax (the rank-0 node).
	rootCenter := centers[0]
	for _, c := range centers[:n] {
		if c != rootCenter {
			return nil, assembly{}, fmt.Errorf("frt: no common root at level %d", imax)
		}
	}

	// Sweep levels top-down, splitting each cluster by its members' centers:
	// a level's clusters are its distinct (parent cluster, center) pairs.
	// Cluster ids are assigned by the serial v-order loop, so the tree is
	// byte-identical at any parallel width. The pairs are grouped without
	// hashing: head[c] starts a chain, through next, of the level's clusters
	// centered at c, one per parent cluster that c's members come from, so
	// chains are short. A level has at most n clusters, so they live in
	// n-sized scratch at their offset k within the level (tree id base+k),
	// and head is reset from the level's own centers. Each finished level is
	// appended to allParent and allCenter, and the Tree's arrays are
	// allocated once, at the final node count. The levels are thus stored
	// top-down at contiguous ids, each numbered in order of its clusters'
	// smallest member leaf (see the layout contract on Tree).
	allParent := append(s.allParent[:0], -1)
	allCenter := append(s.allCenter[:0], rootCenter)
	levelEnd := []int{1}
	cur := make([]int32, n) // every node's cluster one level up: the root, id 0
	head, next, parent, center := s.head, s.next, s.parent, s.center
	for li := 1; li < levelCount; li++ {
		row := centers[li*n : (li+1)*n]
		base, k := int32(len(allParent)), int32(0)
		for v, c := range row {
			p := cur[v]
			j := head[c]
			for j >= 0 && parent[j] != p {
				j = next[j]
			}
			if j < 0 {
				j, k = k, k+1
				parent[j], center[j] = p, c
				next[j], head[c] = head[c], j
			}
			cur[v] = base + j
		}
		for _, c := range center[:k] {
			head[c] = -1
		}
		allParent = append(allParent, parent[:k]...)
		allCenter = append(allCenter, center[:k]...)
		levelEnd = append(levelEnd, len(allParent))
	}
	s.allParent, s.allCenter = allParent, allCenter

	tree := &Tree{
		Parent: slices.Clone(allParent),
		Center: slices.Clone(allCenter),
		Leaf:   cur,
		Beta:   beta,
	}
	// EdgeWeight and Level are functions of the level sizes, imax and β
	// alone, so a patch whose levels kept their sizes shares the old
	// tree's (trees are immutable).
	if old != nil && sameLevels(old, levelEnd) {
		tree.EdgeWeight, tree.Level = old.EdgeWeight, old.Level
	} else {
		nodes := len(allParent)
		tree.EdgeWeight, tree.Level = make([]float64, nodes), make([]int32, nodes)
		start := 0
		for li, end := range levelEnd {
			i := imax - li
			w := 0.0 // the root's
			if li > 0 {
				w = 2 * beta * math.Pow(2, float64(i)) // doubled weight; see Tree doc
			}
			for t := start; t < end; t++ {
				tree.EdgeWeight[t], tree.Level[t] = w, int32(i)
			}
			start = end
		}
	}
	for v, leaf := range tree.Leaf {
		if tree.Center[leaf] != graph.Node(v) {
			return nil, assembly{}, fmt.Errorf("frt: leaf cluster of %d centered at %d — imin not below minimum distance", v, tree.Center[leaf])
		}
	}
	return tree, built, nil
}

// sameLevels reports whether t's levels end where levelEnd's do: level li
// (level imax−li, top-down) occupies tree ids [levelEnd[li−1], levelEnd[li]).
// Levels are stored top-down, so it suffices that the last id of each level
// is at that level and the next id one level lower.
func sameLevels(t *Tree, levelEnd []int) bool {
	if len(t.Level) != levelEnd[len(levelEnd)-1] {
		return false
	}
	for li, end := range levelEnd {
		top := t.Level[0] - int32(li)
		if t.Level[end-1] != top || end < len(t.Level) && t.Level[end] != top-1 {
			return false
		}
	}
	return true
}

// RandomBeta draws β ∈ [1, 2) from the FRT distribution (§7.1 step 1):
// density 1/(β ln 2), realised as β = 2^U with U uniform in [0, 1). This is
// the scale distribution the O(log n) expected-stretch analysis of [19]
// assumes.
func RandomBeta(rng *par.RNG) float64 {
	return math.Pow(2, rng.Float64())
}
