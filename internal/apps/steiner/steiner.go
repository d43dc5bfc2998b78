// Package steiner implements the Steiner tree problem — the family of
// problems the paper's introduction names as a prime consumer of metric
// tree embeddings ("a plethora of Steiner-type problems [23]") — as an
// extension application:
//
//	given terminals T ⊆ V, find a connected subgraph of minimum total
//	weight containing all of T.
//
// Two solvers are provided.
//
//   - Solve: draw FRT trees through the shared frt.Embedder pipeline, take
//     the Steiner tree *on each tree* (trivial: the union of terminal-to-root
//     paths pruned to the terminal spanning subtree — trees make Steiner
//     easy, the whole point of tree embeddings), map its edges back to
//     shortest paths in G (§7.5) through routing.Tables, the application
//     tier's one path expander, and prune the union with an MST + leaf
//     trimming; the lightest per-tree result wins. All visited trees share
//     one Tables, whose single sparse-engine fixpoint targets the union of
//     their used parent centers. Expected cost O(log n)·OPT by the FRT
//     stretch argument, since the objective is linear in edge weights.
//
//   - MetricClosureMST: the classic 2-approximation (MST of the terminal
//     distance closure, paths expanded and pruned) as the baseline.
package steiner

import (
	"fmt"
	"sort"

	"parmbf/internal/apps/routing"
	"parmbf/internal/apps/scenario"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// Result is a Steiner tree: a connected subgraph of G spanning the
// terminals.
type Result struct {
	// Tree is the solution subgraph (a tree after pruning).
	Tree *graph.Graph
	// Weight is its total edge weight.
	Weight float64
}

// validateTerminals checks the terminal set.
func validateTerminals(g *graph.Graph, terminals []graph.Node) error {
	if len(terminals) < 2 {
		return fmt.Errorf("steiner: need ≥ 2 terminals")
	}
	seen := map[graph.Node]bool{}
	for _, t := range terminals {
		if int(t) < 0 || int(t) >= g.N() {
			return fmt.Errorf("steiner: terminal %d out of range", t)
		}
		if seen[t] {
			return fmt.Errorf("steiner: duplicate terminal %d", t)
		}
		seen[t] = true
	}
	return nil
}

// prune reduces an edge multiset to a tree spanning the terminals: MST of
// the subgraph, then repeated removal of non-terminal leaves.
func prune(g *graph.Graph, sub *graph.Graph, terminals []graph.Node) *Result {
	mst, _ := graph.MST(sub)
	isTerminal := make([]bool, g.N())
	for _, t := range terminals {
		isTerminal[t] = true
	}
	// Iteratively trim non-terminal leaves.
	deg := make([]int, g.N())
	adj := make([]map[graph.Node]float64, g.N())
	for v := range adj {
		adj[v] = map[graph.Node]float64{}
	}
	for _, e := range mst.Edges() {
		deg[e.U]++
		deg[e.V]++
		adj[e.U][e.V] = e.Weight
		adj[e.V][e.U] = e.Weight
	}
	queue := []graph.Node{}
	for v := 0; v < g.N(); v++ {
		if deg[v] == 1 && !isTerminal[v] {
			queue = append(queue, graph.Node(v))
		}
	}
	removed := make([]bool, g.N())
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if removed[v] || deg[v] != 1 || isTerminal[v] {
			continue
		}
		removed[v] = true
		for w := range adj[v] {
			if removed[w] {
				continue
			}
			delete(adj[w], v)
			deg[w]--
			if deg[w] == 1 && !isTerminal[w] {
				queue = append(queue, w)
			}
		}
		adj[v] = map[graph.Node]float64{}
		deg[v] = 0
	}
	out := graph.NewBuilder(g.N())
	weight := 0.0
	for v := 0; v < g.N(); v++ {
		for w, wt := range adj[v] {
			if graph.Node(v) < w {
				out.Add(graph.Node(v), w, wt)
				weight += wt
			}
		}
	}
	return &Result{Tree: out.Freeze(), Weight: weight}
}

// Options is the unified application-scenario configuration; see
// scenario.Options. Solve draws Trees trees (default 1) through the shared
// embedder pipeline unless an Ensemble is injected; with several
// trees the lightest per-tree result is returned.
type Options = scenario.Options

// defaultTrees is the number of trees Solve draws when Options does not say
// otherwise. One tree realises the O(log n) expected-stretch argument; more
// trees trade work for the usual best-of-K boost.
const defaultTrees = 1

// Solve computes an expected O(log n)-approximate Steiner tree through FRT
// embeddings drawn from the shared pipeline.
func Solve(g *graph.Graph, terminals []graph.Node, opts Options) (*Result, error) {
	if err := validateTerminals(g, terminals); err != nil {
		return nil, err
	}
	ens, err := opts.Resolve(g, defaultTrees)
	if err != nil {
		return nil, err
	}
	visit, err := opts.Visit(ens)
	if err != nil {
		return nil, err
	}
	hops := make([][]hop, len(visit))
	var targets []graph.Node
	for i, tree := range visit {
		hops[i] = treeHops(tree, terminals)
		for _, h := range hops[i] {
			targets = append(targets, h.to)
		}
	}
	rt := routing.New(g, targets, opts.Tracker)
	var best *Result
	for _, hs := range hops {
		res, err := expand(rt, hs, terminals)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Weight < best.Weight {
			best = res
		}
	}
	return best, nil
}

// hop is one used tree edge as a center-to-center hop in G.
type hop struct{ from, to graph.Node }

// treeHops extracts the Steiner tree on one FRT tree as center-to-center
// hops: it marks the tree edges on terminal-to-root paths and keeps those
// below the terminals' lowest common ancestor — edges whose subtree contains
// ≥ 1 terminal but not all of them.
func treeHops(tree *frt.Tree, terminals []graph.Node) []hop {
	termCount := make([]int, tree.NumNodes())
	for _, t := range terminals {
		for u := tree.Leaf[t]; u != -1; u = tree.Parent[u] {
			termCount[u]++
		}
	}
	var hops []hop
	for child := int32(0); child < int32(tree.NumNodes()); child++ {
		if tree.Parent[child] == -1 {
			continue
		}
		if termCount[child] == 0 || termCount[child] == len(terminals) {
			continue // edge not on the terminal Steiner subtree
		}
		from, to := tree.Center[child], tree.Center[tree.Parent[child]]
		if from == to {
			continue
		}
		hops = append(hops, hop{from: from, to: to})
	}
	return hops
}

// expand maps one tree's hops back to shortest paths in G through rt,
// collects their union and prunes it to a Steiner tree.
func expand(rt *routing.Tables, hops []hop, terminals []graph.Node) (*Result, error) {
	g := rt.Graph()
	sub := graph.NewBuilder(g.N())
	for _, h := range hops {
		path := rt.Path(h.from, h.to)
		if path == nil {
			return nil, fmt.Errorf("steiner: centers %d, %d disconnected", h.from, h.to)
		}
		for i := 1; i < len(path); i++ {
			w, _ := g.HasEdge(path[i-1], path[i])
			sub.Add(path[i-1], path[i], w)
		}
	}
	result := prune(g, sub.Freeze(), terminals)
	if err := Validate(g, terminals, result); err != nil {
		return nil, err
	}
	return result, nil
}

// MetricClosureMST is the classic 2-approximation: MST of the terminals'
// metric closure, expanded back to shortest paths and pruned.
func MetricClosureMST(g *graph.Graph, terminals []graph.Node) (*Result, error) {
	if err := validateTerminals(g, terminals); err != nil {
		return nil, err
	}
	k := len(terminals)
	sssp := make([]*graph.SSSPResult, k)
	par.ForEach(k, func(i int) {
		sssp[i] = graph.Dijkstra(g, terminals[i])
	})
	// Kruskal on the closure.
	type cedge struct {
		i, j int
		w    float64
	}
	var edges []cedge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, cedge{i, j, sssp[i].Dist[terminals[j]]})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].w < edges[b].w })
	uf := graph.NewUnionFind(k)
	sub := graph.NewBuilder(g.N())
	for _, e := range edges {
		if !uf.Union(int32(e.i), int32(e.j)) {
			continue
		}
		path := sssp[e.i].PathTo(terminals[e.j])
		for i := 1; i < len(path); i++ {
			w, _ := g.HasEdge(path[i-1], path[i])
			sub.Add(path[i-1], path[i], w)
		}
	}
	result := prune(g, sub.Freeze(), terminals)
	if err := Validate(g, terminals, result); err != nil {
		return nil, err
	}
	return result, nil
}

// Validate checks that the result is a subgraph of g connecting all
// terminals with consistent weight accounting.
func Validate(g *graph.Graph, terminals []graph.Node, r *Result) error {
	total := 0.0
	for _, e := range r.Tree.Edges() {
		w, ok := g.HasEdge(e.U, e.V)
		if !ok || w != e.Weight {
			return fmt.Errorf("steiner: edge {%d,%d} not in G", e.U, e.V)
		}
		total += e.Weight
	}
	if diff := total - r.Weight; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("steiner: weight accounting off by %v", diff)
	}
	// All terminals in one component of the result.
	uf := graph.NewUnionFind(g.N())
	for _, e := range r.Tree.Edges() {
		uf.Union(int32(e.U), int32(e.V))
	}
	root := uf.Find(int32(terminals[0]))
	for _, t := range terminals[1:] {
		if uf.Find(int32(t)) != root {
			return fmt.Errorf("steiner: terminal %d disconnected", t)
		}
	}
	return nil
}

// LowerBound returns a simple lower bound on the optimal Steiner weight:
// half the weight of the metric-closure MST (the standard 2-approximation
// relation: closureMST ≤ 2·OPT).
func LowerBound(g *graph.Graph, terminals []graph.Node) (float64, error) {
	r, err := MetricClosureMST(g, terminals)
	if err != nil {
		return 0, err
	}
	return r.Weight / 2, nil
}
