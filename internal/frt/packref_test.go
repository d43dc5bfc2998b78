package frt

// Reference test for the index pack: NewOracleIndex takes each tree's
// cluster ids as node offsets within the levels and writes every leaf's words
// in one parallel walk; the reference below is the pack it replaced, which
// built a per-leaf ancestor table per tree (ancRows) and renumbered each
// word column over it, in first-seen order, with per-column stamp arrays.
// Every field the queries read must agree exactly, at several parallel
// widths, on BuildTree ensembles and on split 16/32-bit rows: on the trees
// the layout contract admits, the two numberings coincide.

import (
	"reflect"
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

func newAncRows(t *Tree) *ancRows {
	depth := t.Depth()
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
	}
	return x
}

// packRef is NewOracleIndex as an ancRows table per tree plus a per-column
// stamp renumbering of its ancestor rows: the specification the direct
// pack must meet on valid trees. Every leaf's prefix weights must equal
// leaf 0's, which become the tree's shared row.
func packRef(tb testing.TB, trees []*Tree) *OracleIndex {
	tb.Helper()
	o := &OracleIndex{n: len(trees[0].Leaf), k: len(trees)}
	rows := make([]*ancRows, len(trees))
	maxDepth := 0
	for i, t := range trees {
		if err := t.Validate(); err != nil {
			tb.Fatalf("reference: tree %d: %v", i, err)
		}
		rows[i] = newAncRows(t)
		maxDepth = max(maxDepth, rows[i].depth)
	}
	o.stride = maxDepth + 1
	if o.n > packedLaneMax {
		// A height's clusters number at most min(n, the nodes at its level).
		bound := make([]int, o.stride)
		for _, t := range trees {
			leafLevel := t.Level[t.Leaf[0]]
			counts := make([]int, o.stride)
			for _, l := range t.Level {
				counts[l-leafLevel]++
			}
			for h := range bound {
				bound[h] = max(bound[h], min(o.n, counts[h]))
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
	o.packed = make([]uint64, o.n*o.k*o.words)
	if o.loWords > 0 {
		o.packedLo = make([]uint64, o.n*o.k*o.loWords)
	}
	o.pw = make([]float64, o.k*o.stride)
	for i, x := range rows {
		o.packTreeRef(x, i)
		row := o.pw[i*o.stride : (i+1)*o.stride]
		copy(row, x.pw[:x.stride])
		for h := x.stride; h < len(row); h++ {
			row[h] = row[x.depth]
		}
		for v := 0; v < o.n; v++ {
			for h, w := range x.pw[v*x.stride : (v+1)*x.stride] {
				if row[h] != w {
					tb.Fatalf("reference: tree %d: leaf %d's prefix weights differ from leaf 0's", i, v)
				}
			}
		}
	}
	return o
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
// included), so no level occupies a contiguous id range: the tree stays
// sound but breaks the layout contract.
func permuteTree(tr *Tree, rng *par.RNG) *Tree {
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
	}
	n := 1<<16 + 512
	cases["split"] = []*Tree{bigSyntheticTree(n, 300, false, 1, 4), bigSyntheticTree(n, 17, true, 2, 8)}
	return cases
}

func TestOracleIndexPackMatchesReference(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	for name, trees := range packCases(t) {
		want := packRef(t, trees)
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
				{"shape", [3]int{got.n, got.k, got.stride}, [3]int{want.n, want.k, want.stride}},
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
