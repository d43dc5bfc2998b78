package frt

// Reference test for tree assembly: buildTreeRanked groups each level's
// (parent cluster, center) pairs through dense head/next chains; the
// reference below groups them by a plain map, serially. Every Tree field must agree exactly, at several β values and
// parallel widths, on a random graph, a power-law graph and a unit-weight
// grid — the grid's distance ties put several parent clusters behind one
// center, so it walks the most chain links (435–1,071 per tree here, where
// the other two graphs walk 259–725).

import (
	"math"
	"reflect"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// buildTreeRef is buildTreeRanked with the level grouping keyed by a map
// and every step serial: the specification the chained grouping must meet.
func buildTreeRef(lists []semiring.DistMap, rk RankKeys, beta float64) *Tree {
	n := len(lists)
	dmin, dmax := semiring.Inf, 0.0
	for _, l := range lists {
		if last := l.Len() - 1; last > 0 {
			dmin = math.Min(dmin, l.Dist(last-1))
		}
		dmax = math.Max(dmax, l.Dist(0))
	}
	if semiring.IsInf(dmin) {
		dmin = 1
	}
	if dmax <= 0 {
		dmax = dmin
	}
	imin := int(math.Floor(math.Log2(dmin / beta)))
	for beta*math.Pow(2, float64(imin)) >= dmin {
		imin--
	}
	imax := int(math.Ceil(math.Log2(dmax / beta)))
	for beta*math.Pow(2, float64(imax)) < dmax {
		imax++
	}
	centerAt := func(v, i int) graph.Node {
		r := beta * math.Pow(2, float64(i))
		l := lists[v]
		j := 0
		for l.Dist(j) > r {
			j++
		}
		return rk.Node[l.Node(j)]
	}
	tree := &Tree{Beta: beta, Leaf: make([]int32, n)}
	addNode := func(parent int32, c graph.Node, level int, w float64) int32 {
		id := int32(len(tree.Parent))
		tree.Parent = append(tree.Parent, parent)
		tree.EdgeWeight = append(tree.EdgeWeight, w)
		tree.Center = append(tree.Center, c)
		tree.Level = append(tree.Level, int32(level))
		return id
	}
	root := addNode(-1, centerAt(0, imax), imax, 0)
	cur := make([]int32, n)
	for v := range cur {
		cur[v] = root
	}
	type key struct {
		parent int32
		center graph.Node
	}
	for i := imax - 1; i >= imin; i-- {
		ids := make(map[key]int32)
		w := 2 * beta * math.Pow(2, float64(i))
		for v := 0; v < n; v++ {
			k := key{parent: cur[v], center: centerAt(v, i)}
			id, ok := ids[k]
			if !ok {
				id = addNode(k.parent, k.center, i, w)
				ids[k] = id
			}
			cur[v] = id
		}
	}
	copy(tree.Leaf, cur)
	return tree
}

func TestBuildTreeMatchesMapGrouping(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomConnected(300, 1200, 10, par.NewRNG(61))},
		{"chunglu", graph.ChungLu(400, 6, 2.5, 20, par.NewRNG(62))},
		{"grid-unit", graph.GridGraph(20, 20, 1, par.NewRNG(63))},
	}
	for _, gc := range graphs {
		for _, seed := range []uint64{1, 2} {
			rk := NewOrder(gc.g.N(), par.NewRNG(seed)).MustKeys(gc.g.N())
			lists, _ := leListsRanked(gc.g, []RankKeys{rk}, nil)
			for _, beta := range []float64{1, 1.25, 1.5, 1.9999} {
				want := buildTreeRef(lists[0], rk, beta)
				for _, procs := range []int{1, 4} {
					par.MaxProcs = procs
					got, err := buildTreeRanked(lists[0], rk, beta)
					if err != nil {
						t.Fatalf("%s seed %d β=%v procs %d: %v", gc.name, seed, beta, procs, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d β=%v procs %d: tree differs from the map-keyed reference (%d vs %d nodes)",
							gc.name, seed, beta, procs, got.NumNodes(), want.NumNodes())
					}
				}
			}
		}
	}
}
