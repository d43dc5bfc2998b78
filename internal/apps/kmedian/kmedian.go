// Package kmedian implements the k-median application of §9 of Friedrichs &
// Lenzen: an expected O(log k)-approximation for graphs (Theorem 9.2),
// combining
//
//	(1) Mettu–Plaxton-style candidate sampling, with distances evaluated by
//	    the sparse fixpoint engine's source-detection algebra (the paper
//	    runs the forest-fire MBF-like algorithm on H for the same purpose),
//	(2) FRT trees of the graph drawn through the shared frt.Embedder
//	    pipeline, and
//	(3) an exact dynamic program for k-median on each tree with centers
//	    restricted to the candidate leaves — made simple by the FRT
//	    structure: leaf-to-leaf distance depends only on the level of the
//	    lowest common ancestor, so a leaf served outside its subtree pays a
//	    level-determined toll. Tree solutions are compared by their exact
//	    cost (one multi-source Dijkstra sweep each), so solving all trees
//	    at once and keeping the cheapest of per-tree solves agree.
//
// Baselines for the experiments: exact brute force (tiny instances) and
// local search with single swaps (the classic (3+ε)-approximation).
package kmedian

import (
	"fmt"
	"math"

	"parmbf/internal/apps/scenario"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Result is a k-median solution.
type Result struct {
	// Centers is the selected facility set F, |F| ≤ k.
	Centers []graph.Node
	// Cost is Σ_v dist(v, F, G), evaluated exactly.
	Cost float64
	// Candidates is the sampled candidate set Q (Solve only).
	Candidates []graph.Node
}

// Cost evaluates Σ_v dist(v, centers, G) exactly.
func Cost(g *graph.Graph, centers []graph.Node) float64 {
	dist, _ := graph.MultiSourceDijkstra(g, centers)
	total := 0.0
	for _, d := range dist {
		total += d
	}
	return total
}

// SampleCandidates runs the iterative sampling of step (1): starting from
// U = V, each round samples Θ(k) candidates, removes the half of U closest
// to them, and recurses; when |U| ≤ 2k the remainder joins the candidates.
// The result has O(k log(n/k)) nodes and contains a subset whose k-median
// cost O(1)-approximates the optimum (Mettu & Plaxton [34]).
func SampleCandidates(g *graph.Graph, k int, rng *par.RNG, tracker *par.Tracker) []graph.Node {
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
		dist := nearestDist(g, sample, tracker)
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

// quickSelect returns the k-th smallest element of xs (0-based); xs is
// clobbered.
func quickSelect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return xs[k]
		}
	}
	return xs[lo]
}

// nearestDist returns dist(v, sources) for every node, computed by the
// sparse fixpoint engine's (S, ∞, 1)-source-detection instance — the
// MBF-like replacement for a multi-source Dijkstra sweep.
func nearestDist(g *graph.Graph, sources []graph.Node, tracker *par.Tracker) []float64 {
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

// Options is the unified application-scenario configuration; see
// scenario.Options. Solve draws Trees trees (default 3) through the shared
// embedder pipeline unless an Ensemble is injected. RNG is
// always required: candidate sampling is randomized even when the trees are
// injected.
type Options = scenario.Options

// defaultTrees is the number of independent trees Solve tries when Options
// does not say otherwise (repeating log(1/ε) times boosts the success
// probability, §1).
const defaultTrees = 3

// Solve computes an expected O(log k)-approximate k-median solution of g
// (Theorem 9.2): Mettu–Plaxton candidate sampling, then for each FRT tree of
// the ensemble an exact tree DP with centers restricted to candidate leaves.
// The per-tree solutions are compared by exact cost, in tree order with a
// strict comparison, so the result equals the cheapest of the per-tree
// solves with FirstTree=t, Trees=1 — the fold a sharded router runs.
func Solve(g *graph.Graph, k int, opts Options) (*Result, error) {
	if opts.RNG == nil {
		return nil, fmt.Errorf("kmedian: Options.RNG is required")
	}
	if k < 1 || k > g.N() {
		return nil, fmt.Errorf("kmedian: k=%d out of range", k)
	}
	rng := opts.RNG

	// (1) Candidates.
	candidates := SampleCandidates(g, k, rng, opts.Tracker)
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
		picked := TreeKMedian(t, weight, allowed, k)
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

// TreeKMedian solves weighted k-median exactly on an FRT tree: it returns
// up to k leaves (as graph-node indices into the tree's leaf set) minimising
// Σ_leaf weight[leaf] · dist_T(leaf, F), with the centers restricted to the
// leaves whose graph node is marked in allowed (nil allows every leaf).
// Disallowed leaves remain clients — they pay the toll to wherever their
// serving center merges — but can never host a center. This is how the
// candidate-sampling stage composes with trees drawn on the full graph: the
// DP runs on the real FRT tree of G, no candidate submetric required.
//
// The DP exploits the FRT structure: all leaves share one depth and edge
// weights depend only on the level, so a leaf served by a center outside
// its subtree pays exactly 2·climb(ℓ), where ℓ is the level of the lowest
// tree node that contains both and climb is the uniform leaf-to-level
// ascent cost. f[t][j] is the optimal cost of subtree(t) with exactly j ≥ 1
// centers inside serving all of its leaves; a child allocated 0 centers
// contributes its total weight times the toll at t.
func TreeKMedian(t *frt.Tree, weight []float64, allowed []bool, k int) []int32 {
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

// BruteForce solves k-median exactly by enumerating all center sets — only
// viable for tiny instances; it is the ground truth of experiment E11.
func BruteForce(g *graph.Graph, k int) *Result {
	n := g.N()
	best := &Result{Cost: math.Inf(1)}
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			centers := make([]graph.Node, k)
			for i, v := range idx {
				centers[i] = graph.Node(v)
			}
			if c := Cost(g, centers); c < best.Cost {
				best.Cost = c
				best.Centers = centers
			}
			return
		}
		for v := start; v < n; v++ {
			idx[depth] = v
			rec(v+1, depth+1)
		}
	}
	rec(0, 0)
	return best
}

// LocalSearch runs single-swap local search from a random start — the
// classic (3+ε)-approximation baseline.
func LocalSearch(g *graph.Graph, k int, rng *par.RNG, maxIters int) *Result {
	n := g.N()
	centers := make([]graph.Node, 0, k)
	inSet := make([]bool, n)
	for len(centers) < k {
		v := graph.Node(rng.Intn(n))
		if !inSet[v] {
			inSet[v] = true
			centers = append(centers, v)
		}
	}
	cost := Cost(g, centers)
	for iter := 0; iter < maxIters; iter++ {
		improved := false
		for i := 0; i < k && !improved; i++ {
			for v := 0; v < n; v++ {
				if inSet[v] {
					continue
				}
				old := centers[i]
				centers[i] = graph.Node(v)
				if c := Cost(g, centers); c < cost {
					cost = c
					inSet[old] = false
					inSet[v] = true
					improved = true
					break
				}
				centers[i] = old
			}
		}
		if !improved {
			break
		}
	}
	return &Result{Centers: centers, Cost: cost}
}

// Assignment maps every node to its serving center (the nearest element of
// centers), the form in which a k-median solution is consumed downstream.
func Assignment(g *graph.Graph, centers []graph.Node) []graph.Node {
	_, nearest := graph.MultiSourceDijkstra(g, centers)
	return nearest
}
