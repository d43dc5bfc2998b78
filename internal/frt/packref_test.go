package frt

// Reference test for the index pack: NewOracleIndex numbers each tree's
// clusters in one serial climb from the leaves and writes every leaf's words
// in one parallel walk; the reference below is the pack it replaced, which
// built a per-leaf ancestor table per tree (ancRows) and renumbered each
// word column over it with per-column stamp arrays. Every field the queries read
// must agree exactly, at several parallel widths, on BuildTree ensembles,
// on split 16/32-bit rows, on non-uniform weights and on trees whose node
// ids are permuted (so a level's clusters are not contiguous).

import (
	"reflect"
	"strings"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// ancRows is the per-leaf ancestor table the reference packs from, filled
// serially: anc[v*stride+h] is the height-h ancestor of v's leaf (h = 0 the
// leaf, h = depth the root) and pw[v*stride+h] the edge weight from the
// leaf up to it, summed bottom-up like Tree.Dist.
type ancRows struct {
	tree          *Tree
	depth, stride int
	anc           []int32
	pw            []float64
}

func newAncRows(tb testing.TB, t *Tree) *ancRows {
	depth, ok := leafDepth(t)
	if !ok {
		tb.Fatal("reference: broken chain at leaf 0")
	}
	x := &ancRows{tree: t, depth: depth, stride: depth + 1}
	x.anc = make([]int32, len(t.Leaf)*x.stride)
	x.pw = make([]float64, len(t.Leaf)*x.stride)
	for v, u := range t.Leaf {
		row := v * x.stride
		x.anc[row] = u
		for h := 0; h < depth; h++ {
			x.pw[row+h+1] = x.pw[row+h] + t.EdgeWeight[u]
			u = t.Parent[u]
			x.anc[row+h+1] = u
		}
		if t.Parent[u] != -1 {
			tb.Fatalf("reference: leaf %d is deeper than leaf 0", v)
		}
	}
	return x
}

// packRef is NewOracleIndex as an ancRows table per tree plus a per-column
// stamp renumbering of its ancestor rows: the specification the direct
// pack must meet.
func packRef(tb testing.TB, trees []*Tree) *OracleIndex {
	tb.Helper()
	o := &OracleIndex{n: len(trees[0].Leaf), k: len(trees)}
	depths := make([]int, len(trees))
	maxDepth := 0
	for i, t := range trees {
		d, ok := leafDepth(t)
		if !ok {
			tb.Fatalf("reference: tree %d has a broken chain at leaf 0", i)
		}
		depths[i], maxDepth = d, max(maxDepth, d)
	}
	o.stride = maxDepth + 1
	if o.n > packedLaneMax {
		bound := make([]int, o.stride)
		for i, t := range trees {
			counts := treeLevelCounts(t, depths[i])
			for h := range bound {
				c := o.n
				if h > depths[i] {
					c = 1
				} else if int(counts[h]) < c {
					c = int(counts[h])
				}
				bound[h] = max(bound[h], c)
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
	for !o.streamRef(tb, trees) {
		o.pwStep = o.k * o.stride
	}
	return o
}

// streamRef packs the trees one ancRows table at a time; with pwStep = 0 it
// returns false at the first tree whose prefix weights differ from leaf 0's.
func (o *OracleIndex) streamRef(tb testing.TB, trees []*Tree) bool {
	o.packed = make([]uint64, o.n*o.k*o.words)
	o.packedLo = nil
	if o.loWords > 0 {
		o.packedLo = make([]uint64, o.n*o.k*o.loWords)
	}
	rows := 1
	if o.pwStep > 0 {
		rows = o.n
	}
	o.pw = make([]float64, rows*o.k*o.stride)
	padRow := func(dst, src []float64) {
		copy(dst, src)
		for h := len(src); h < len(dst); h++ {
			dst[h] = src[len(src)-1]
		}
	}
	for i, t := range trees {
		x := newAncRows(tb, t)
		o.packTreeRef(x, i)
		if o.pwStep > 0 {
			for v := 0; v < o.n; v++ {
				padRow(o.pw[v*o.pwStep+i*o.stride:][:o.stride], x.pw[v*x.stride:(v+1)*x.stride])
			}
			continue
		}
		row := o.pw[i*o.stride : (i+1)*o.stride]
		padRow(row, x.pw[:x.stride])
		for v := 0; v < o.n; v++ {
			for h, w := range x.pw[v*x.stride : (v+1)*x.stride] {
				if row[h] != w {
					return false
				}
			}
		}
	}
	return true
}

// packTreeRef renumbers each word column's heights in first-seen order over
// v = 0…n−1 with a stamp per tree node, clamping heights past the tree's
// depth to the root, and ORs the ids into their lanes.
func (o *OracleIndex) packTreeRef(x *ancRows, t int) {
	nn := x.tree.NumNodes()
	packColumn := func(heights []int, write func(v, lane int, id uint32)) {
		id := make([]uint32, nn)
		stamp := make([]int32, nn)
		for i := range stamp {
			stamp[i] = -1
		}
		for lane, h := range heights {
			next := uint32(0)
			for v := 0; v < o.n; v++ {
				a := x.anc[v*x.stride+min(h, x.depth)]
				if stamp[a] != int32(lane) {
					stamp[a], id[a] = int32(lane), next
					next++
				}
				write(v, lane, id[a])
			}
		}
	}
	for w := 0; w < o.loWords; w++ {
		heights := []int{2 * w}
		if 2*w+1 < o.split {
			heights = append(heights, 2*w+1)
		}
		packColumn(heights, func(v, lane int, cid uint32) {
			o.packedLo[(v*o.k+t)*o.loWords+w] |= uint64(cid) << (uint(lane) * 32)
		})
	}
	for hw := 0; hw < o.words; hw++ {
		heights := []int{o.split + 4*hw, o.split + 4*hw + 1, o.split + 4*hw + 2, o.split + 4*hw + 3}
		packColumn(heights, func(v, lane int, cid uint32) {
			o.packed[(v*o.k+t)*o.words+hw] |= uint64(cid) << (uint(lane) * 16)
		})
	}
}

// permuteTree renumbers tr's nodes by a random permutation (the root
// included), so no level occupies a contiguous id range, and checks that
// the result is a valid tree.
func permuteTree(tb testing.TB, tr *Tree, rng *par.RNG) *Tree {
	tb.Helper()
	nn := tr.NumNodes()
	perm := rng.Perm(nn)
	out := &Tree{
		Parent:     make([]int32, nn),
		EdgeWeight: make([]float64, nn),
		Center:     make([]graph.Node, nn),
		Level:      make([]int32, nn),
		Leaf:       make([]int32, len(tr.Leaf)),
		Beta:       tr.Beta,
	}
	for u := 0; u < nn; u++ {
		nu := perm[u]
		out.Parent[nu] = -1
		if p := tr.Parent[u]; p >= 0 {
			out.Parent[nu] = int32(perm[p])
		}
		out.EdgeWeight[nu], out.Center[nu], out.Level[nu] = tr.EdgeWeight[u], tr.Center[u], tr.Level[u]
	}
	for v, leaf := range tr.Leaf {
		out.Leaf[v] = int32(perm[leaf])
	}
	if err := out.Validate(); err != nil {
		tb.Fatalf("permuted tree is invalid: %v", err)
	}
	return out
}

// packCases is the differential suite's input set.
func packCases(tb testing.TB) map[string][]*Tree {
	tb.Helper()
	cases := map[string][]*Tree{}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomConnected(300, 1200, 10, par.NewRNG(81))},
		{"chunglu", graph.ChungLu(400, 6, 2.5, 20, par.NewRNG(82))},
		{"grid-unit", graph.GridGraph(20, 20, 1, par.NewRNG(83))},
	}
	prng := par.NewRNG(84)
	for _, gc := range graphs {
		var trees []*Tree
		for seed, beta := range []float64{1, 1.25, 1.5, 1.9999} {
			rk := NewOrder(gc.g.N(), par.NewRNG(uint64(seed+1))).MustKeys(gc.g.N())
			lists, _ := leListsRanked(gc.g, []RankKeys{rk}, nil)
			tr, err := buildTreeRanked(lists[0], rk, beta)
			if err != nil {
				tb.Fatal(err)
			}
			trees = append(trees, tr)
		}
		cases[gc.name] = trees
		skewed := append([]*Tree(nil), trees...)
		skewed[2] = perturbLeafEdge(tb, trees[2], 17)
		cases[gc.name+"/non-uniform"] = skewed
		permuted := make([]*Tree, len(trees))
		for i, tr := range trees {
			permuted[i] = permuteTree(tb, tr, prng)
		}
		cases[gc.name+"/permuted"] = permuted
		permuted = append([]*Tree(nil), permuted...)
		permuted[1] = permuteTree(tb, perturbLeafEdge(tb, trees[1], 3), prng)
		cases[gc.name+"/permuted-non-uniform"] = permuted
	}
	n := 1<<16 + 512
	uniform := []*Tree{bigSyntheticTree(n, 300, false, 1, 4), bigSyntheticTree(n, 17, true, 2, 8)}
	skewed := bigSyntheticTree(n, 300, false, 1, 4)
	skewed.EdgeWeight[skewed.Leaf[300*7+5]] = 3
	cases["split"] = uniform
	cases["split/non-uniform"] = append(uniform, skewed)
	cases["split/permuted"] = []*Tree{permuteTree(tb, uniform[1], prng), uniform[0]}
	return cases
}

func TestOracleIndexPackMatchesReference(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	for name, trees := range packCases(t) {
		want := packRef(t, trees)
		if perLeaf := want.pwStep > 0; perLeaf != strings.Contains(name, "non-uniform") {
			t.Fatalf("%s: per-leaf weight rows = %v", name, perLeaf)
		}
		for _, procs := range []int{1, 4} {
			par.MaxProcs = procs
			got, err := NewOracleIndex(trees)
			if err != nil {
				t.Fatalf("%s procs %d: %v", name, procs, err)
			}
			for _, f := range []struct {
				field     string
				got, want any
			}{
				{"shape", [4]int{got.n, got.k, got.stride, got.pwStep}, [4]int{want.n, want.k, want.stride, want.pwStep}},
				{"lanes", [3]int{got.split, got.words, got.loWords}, [3]int{want.split, want.words, want.loWords}},
				{"packed", got.packed, want.packed},
				{"packedLo", got.packedLo, want.packedLo},
				{"pw", got.pw, want.pw},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("%s procs %d: %s differs from the reference pack", name, procs, f.field)
				}
			}
		}
	}
}
