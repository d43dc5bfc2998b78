package kmedian

// Reference copies of candidate sampling and the tree DP as they stood
// before sampling ran on the forest fire and the DP kept per-child choice
// tables: sampling drew its distances from a top-1 distance-map source
// detection, and the DP copied the whole allocation chain into every
// knapsack cell. The differential tests in diff_test.go hold the library to
// these bitwise.

import (
	"fmt"
	"math"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func refSampleCandidates(g *graph.Graph, k int, rng *par.RNG, tracker *par.Tracker) []graph.Node {
	n := g.N()
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	aliveCount := n
	var candidates []graph.Node
	seen := make([]bool, n)
	addCandidate := func(v graph.Node) {
		if !seen[v] {
			seen[v] = true
			candidates = append(candidates, v)
		}
	}
	perRound := 3 * k
	for aliveCount > 2*k {
		// Sample perRound alive nodes (with replacement, deduplicated).
		var sample []graph.Node
		for i := 0; i < perRound*4 && len(sample) < perRound; i++ {
			v := graph.Node(rng.Intn(n))
			if alive[v] {
				sample = append(sample, v)
				addCandidate(v)
			}
		}
		if len(sample) == 0 {
			break
		}
		dist := refNearestDist(g, sample, tracker)
		// Remove the closest half of the alive nodes.
		alivedists := make([]float64, 0, aliveCount)
		for v := 0; v < n; v++ {
			if alive[v] {
				alivedists = append(alivedists, dist[v])
			}
		}
		median := quickSelect(alivedists, len(alivedists)/2)
		removed := 0
		for v := 0; v < n && removed < aliveCount/2; v++ {
			if alive[v] && dist[v] <= median {
				alive[v] = false
				removed++
			}
		}
		aliveCount -= removed
		if removed == 0 {
			break
		}
	}
	for v := 0; v < n; v++ {
		if alive[v] {
			addCandidate(graph.Node(v))
		}
	}
	return candidates
}

func refNearestDist(g *graph.Graph, sources []graph.Node, tracker *par.Tracker) []float64 {
	isSource := make([]bool, g.N())
	for _, s := range sources {
		isSource[s] = true
	}
	maps := mbf.SourceDetection(g, func(v graph.Node) bool { return isSource[v] },
		g.N(), semiring.Inf, 1, tracker)
	dist := make([]float64, len(maps))
	for v, m := range maps {
		if m.Len() > 0 {
			dist[v] = m.Entry(0).Dist
		} else {
			dist[v] = semiring.Inf
		}
	}
	return dist
}

func refSolve(g *graph.Graph, k int, opts Options) (*Result, error) {
	if opts.RNG == nil {
		return nil, fmt.Errorf("kmedian: Options.RNG is required")
	}
	if k < 1 || k > g.N() {
		return nil, fmt.Errorf("kmedian: k=%d out of range", k)
	}
	rng := opts.RNG

	// (1) Candidates.
	candidates := refSampleCandidates(g, k, rng, opts.Tracker)
	if len(candidates) <= k {
		return &Result{Centers: candidates, Cost: Cost(g, candidates), Candidates: candidates}, nil
	}

	// (2)+(3) One tree DP per ensemble tree, centers restricted to the
	// candidate leaves; every node is its own unit-weight client (no client
	// aggregation onto candidates — the graph trees carry all leaves).
	ens, err := opts.Resolve(g, defaultTrees)
	if err != nil {
		return nil, err
	}
	visit, err := opts.Visit(ens)
	if err != nil {
		return nil, err
	}
	allowed := make([]bool, g.N())
	for _, q := range candidates {
		allowed[q] = true
	}
	weight := make([]float64, g.N())
	for v := range weight {
		weight[v] = 1
	}
	var best []graph.Node
	var bestCost float64
	for _, t := range visit {
		picked := refTreeKMedian(t, weight, allowed, k)
		if len(picked) == 0 {
			continue
		}
		centers := make([]graph.Node, len(picked))
		for i, leaf := range picked {
			centers[i] = graph.Node(leaf)
		}
		if c := Cost(g, centers); best == nil || c < bestCost {
			best, bestCost = centers, c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("kmedian: no tree produced a center set")
	}
	return &Result{Centers: best, Cost: bestCost, Candidates: candidates}, nil
}

func refTreeKMedian(t *frt.Tree, weight []float64, allowed []bool, k int) []int32 {
	nt := t.NumNodes()
	children := make([][]int32, nt)
	root := int32(-1)
	for u := 0; u < nt; u++ {
		p := t.Parent[u]
		if p == -1 {
			root = int32(u)
		} else {
			children[p] = append(children[p], int32(u))
		}
	}
	// climbTo[u] = cost from leaf depth up to tree node u (uniform over
	// leaves below u).
	climbTo := make([]float64, nt)
	var setClimb func(u int32, above float64)
	setClimb = func(u int32, above float64) {
		climbTo[u] = above
		for _, c := range children[u] {
			setClimb(c, above+t.EdgeWeight[c])
		}
	}
	setClimb(root, 0)
	// Re-express: climbTo currently holds root-to-u descent; convert to
	// leaf-to-u ascent = total depth − descent.
	totalDepth := 0.0
	{
		u := t.Leaf[0]
		for t.Parent[u] != -1 {
			totalDepth += t.EdgeWeight[u]
			u = t.Parent[u]
		}
	}
	for u := range climbTo {
		climbTo[u] = totalDepth - climbTo[u]
	}

	// leafWeight and per-subtree totals.
	subWeight := make([]float64, nt)
	leafOf := make([]int32, nt) // graph-leaf index for leaf tree nodes, -1 otherwise
	for u := range leafOf {
		leafOf[u] = -1
	}
	for li, u := range t.Leaf {
		leafOf[u] = int32(li)
	}

	const inf = math.MaxFloat64 / 4
	// f[u] has length maxJ+1; f[u][0] = inf (at least one center needed for
	// the subtree to serve itself). choice[u][j] records the allocation for
	// backtracking.
	f := make([][]float64, nt)
	type alloc struct {
		child int32
		jc    int
	}
	choice := make([][][]alloc, nt)

	var solve func(u int32)
	solve = func(u int32) {
		if leafOf[u] != -1 {
			subWeight[u] = weight[leafOf[u]]
			if allowed == nil || allowed[leafOf[u]] {
				f[u] = []float64{inf, 0} // one center: the leaf itself, cost 0
			} else {
				f[u] = []float64{inf} // client-only leaf: no center option
			}
			choice[u] = make([][]alloc, len(f[u]))
			return
		}
		for _, c := range children[u] {
			solve(c)
			subWeight[u] += subWeight[c]
		}
		toll := 2 * climbTo[u]
		// Knapsack over children: cur[j] = best cost using j centers among
		// the processed children, where 0-center children pay the toll.
		cur := []float64{0}
		curChoice := [][]alloc{nil}
		for _, c := range children[u] {
			maxJ := len(cur) - 1 + len(f[c]) - 1
			if maxJ > k {
				maxJ = k
			}
			next := make([]float64, maxJ+1)
			nextChoice := make([][]alloc, maxJ+1)
			for j := range next {
				next[j] = inf
			}
			for j0 := 0; j0 < len(cur); j0++ {
				if cur[j0] >= inf {
					continue
				}
				// Option A: no center in c — its weight pays the toll here.
				if j0 <= maxJ {
					if cost := cur[j0] + subWeight[c]*toll; cost < next[j0] {
						next[j0] = cost
						nextChoice[j0] = append(append([]alloc(nil), curChoice[j0]...), alloc{child: c, jc: 0})
					}
				}
				// Option B: jc ≥ 1 centers in c.
				for jc := 1; jc < len(f[c]) && j0+jc <= maxJ; jc++ {
					if f[c][jc] >= inf {
						continue
					}
					if cost := cur[j0] + f[c][jc]; cost < next[j0+jc] {
						next[j0+jc] = cost
						nextChoice[j0+jc] = append(append([]alloc(nil), curChoice[j0]...), alloc{child: c, jc: jc})
					}
				}
			}
			cur, curChoice = next, nextChoice
		}
		// f[u][0] stays invalid; j ≥ 1 taken from the knapsack.
		f[u] = make([]float64, len(cur))
		f[u][0] = inf
		choice[u] = make([][]alloc, len(cur))
		for j := 1; j < len(cur); j++ {
			f[u][j] = cur[j]
			choice[u][j] = curChoice[j]
		}
	}
	solve(root)

	bestJ, bestCost := 0, inf
	for j := 1; j < len(f[root]) && j <= k; j++ {
		if f[root][j] < bestCost {
			bestCost, bestJ = f[root][j], j
		}
	}
	if bestJ == 0 {
		return nil
	}
	var picked []int32
	var collect func(u int32, j int)
	collect = func(u int32, j int) {
		if leafOf[u] != -1 {
			picked = append(picked, leafOf[u])
			return
		}
		for _, a := range choice[u][j] {
			if a.jc > 0 {
				collect(a.child, a.jc)
			}
		}
	}
	collect(root, bestJ)
	return picked
}
