// Package kmedian implements the k-median application of §9 of Friedrichs &
// Lenzen: an expected O(log k)-approximation for graphs (Theorem 9.2),
// combining
//
//	(1) Mettu–Plaxton-style candidate sampling, whose distances to each
//	    round's sample come from the forest-fire MBF-like algorithm of
//	    Example 3.7 (scalar min-plus states, no threshold) run by the sparse
//	    fixpoint engine,
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
		// Distance to the nearest sample: the forest fire of Example 3.7
		// with the sample burning and no threshold.
		dist := mbf.ForestFire(g, sample, semiring.Inf, tracker)
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
	for i, tree := range visit {
		if err := tree.Validate(); err != nil {
			return nil, fmt.Errorf("kmedian: tree %d: %w", i, err)
		}
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
// weights depend only on the level (frt.Tree's layout contract, which
// every library-built tree meets and Solve checks with Tree.Validate; a
// tree that breaks it is mispriced), so a leaf served by a center outside
// its subtree pays exactly 2·climb(ℓ), where ℓ is the level of the lowest
// tree node that contains both and climb is the uniform leaf-to-level
// ascent cost. f[t][j] is the optimal cost of subtree(t) with exactly j ≥ 1
// centers inside serving all of its leaves; a child allocated 0 centers
// contributes its total weight times the toll at t.
func TreeKMedian(t *frt.Tree, weight []float64, allowed []bool, k int) []int32 {
	nt := t.NumNodes()
	// The children of u are kids[at[u]:at[u+1]], in ascending id: at
	// counts them at p+2, sums to each list's start at p+1, then advances
	// that start to the list's end (= the start of p+1's list) while filling.
	at := make([]int32, nt+2)
	root := int32(-1)
	for u := 0; u < nt; u++ {
		if p := t.Parent[u]; p == -1 {
			root = int32(u)
		} else {
			at[p+2]++
		}
	}
	for u := 2; u < nt+2; u++ {
		at[u] += at[u-1]
	}
	kids := make([]int32, nt)
	for u := 0; u < nt; u++ {
		if p := t.Parent[u]; p != -1 {
			kids[at[p+1]] = int32(u)
			at[p+1]++
		}
	}
	children := func(u int32) []int32 { return kids[at[u]:at[u+1]] }
	// climbTo[u] = cost from leaf depth up to tree node u (uniform over
	// leaves below u).
	climbTo := make([]float64, nt)
	var setClimb func(u int32, above float64)
	setClimb = func(u int32, above float64) {
		climbTo[u] = above
		for _, c := range children(u) {
			setClimb(c, above+t.EdgeWeight[c])
		}
	}
	setClimb(root, 0)
	// Re-express: climbTo currently holds root-to-u descent; convert to
	// leaf-to-u ascent = total depth − descent.
	totalDepth := 0.0
	for u := t.Leaf[0]; t.Parent[u] != -1; u = t.Parent[u] {
		totalDepth += t.EdgeWeight[u]
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
	// the subtree to serve itself). The knapsack at u takes its children in
	// order; pick[c][j] is the center count it gave child c in the best
	// j-center allocation of c and the children before it: backtracking
	// needs one int32 per (child, j).
	f := make([][]float64, nt)
	pick := make([][]int32, nt)
	leafF, clientF := []float64{inf, 0}, []float64{inf} // shared, never written
	var fBuf []float64
	var pickBuf []int32

	var solve func(u int32)
	solve = func(u int32) {
		if leafOf[u] != -1 {
			subWeight[u] = weight[leafOf[u]]
			if allowed == nil || allowed[leafOf[u]] {
				f[u] = leafF // one center: the leaf itself, cost 0
			} else {
				f[u] = clientF // client-only leaf: no center option
			}
			return
		}
		for _, c := range children(u) {
			solve(c)
			subWeight[u] += subWeight[c]
		}
		toll := 2 * climbTo[u]
		// Knapsack over children: cur[j] = best cost using j centers among
		// the processed children, where 0-center children pay the toll.
		cur := bump(&fBuf, 1)
		cur[0] = 0
		for _, c := range children(u) {
			maxJ := min(len(cur)-1+len(f[c])-1, k)
			next, jcOf := bump(&fBuf, maxJ+1), bump(&pickBuf, maxJ+1)
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
						next[j0], jcOf[j0] = cost, 0
					}
				}
				// Option B: jc ≥ 1 centers in c.
				for jc := 1; jc < len(f[c]) && j0+jc <= maxJ; jc++ {
					if f[c][jc] >= inf {
						continue
					}
					if cost := cur[j0] + f[c][jc]; cost < next[j0+jc] {
						next[j0+jc], jcOf[j0+jc] = cost, int32(jc)
					}
				}
			}
			cur, pick[c] = next, jcOf
		}
		// f[u][0] stays invalid; j ≥ 1 taken from the knapsack.
		cur[0] = inf
		f[u] = cur
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
	// Backtrack: peel u's children off its knapsack last to first, then
	// descend in child order, so the centers come out in the order of a
	// forward walk.
	var picked []int32
	given := make([]int32, nt)
	var collect func(u int32, j int)
	collect = func(u int32, j int) {
		if leafOf[u] != -1 {
			picked = append(picked, leafOf[u])
			return
		}
		cs := children(u)
		for i := len(cs) - 1; i >= 0; i-- {
			given[cs[i]] = pick[cs[i]][j]
			j -= int(given[cs[i]])
		}
		for _, c := range cs {
			if given[c] > 0 {
				collect(c, int(given[c]))
			}
		}
	}
	collect(root, bestJ)
	return picked
}

// bump carves an n-element slice off *buf, growing it into a fresh block
// when full; earlier slices keep their block.
func bump[T any](buf *[]T, n int) []T {
	if len(*buf)+n > cap(*buf) {
		*buf = make([]T, 0, max(2*cap(*buf), n, 1024))
	}
	s := (*buf)[len(*buf) : len(*buf)+n]
	*buf = (*buf)[:len(*buf)+n]
	return s
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
