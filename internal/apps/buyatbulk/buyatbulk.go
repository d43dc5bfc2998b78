// Package buyatbulk implements the buy-at-bulk network design application
// of §10 of Friedrichs & Lenzen: an expected O(log n)-approximation
// (Theorem 10.2) that
//
//	(1) embeds the graph into FRT trees drawn through the shared
//	    frt.Embedder pipeline,
//	(2) routes every demand along its unique tree path and buys, per tree
//	    edge with accumulated flow d_e, the cable type minimising
//	    c_i·⌈d_e/u_i⌉ (an O(1)-approximation on the tree) — flows are
//	    accumulated with an LCA-delta sweep over the TreeIndex instead of
//	    per-demand lockstep walks, and
//	(3) maps each loaded tree edge back to a shortest path in G between the
//	    cluster centers (§7.5) by walking the next-hop tables of one
//	    sparse-engine routing fixpoint, purchasing the same cables along it.
//
// The linearity of the objective in edge weights is what makes the FRT
// stretch argument go through: an optimal solution in G induces a tree
// solution of expected cost O(log n)·OPT, and mapping back pays only a
// constant factor.
package buyatbulk

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"parmbf/internal/apps/scenario"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
)

// Demand routes Amount units of (distinct) flow from S to T.
type Demand struct {
	S, T   graph.Node
	Amount float64
}

// CableType has capacity Capacity and costs Cost per unit of edge weight;
// multiple cables of one type may be bought for an edge.
type CableType struct {
	Capacity float64
	Cost     float64
}

// Purchase is a cable assignment to a graph edge.
type Purchase struct {
	U, V  graph.Node
	Cable int
	Count int
}

// Solution is a priced buy-at-bulk solution together with the per-edge flow
// it must support.
type Solution struct {
	// Purchases lists all bought cables.
	Purchases []Purchase
	// Cost is the total purchase cost.
	Cost float64
	// Flow is the flow each purchased edge must carry, keyed like
	// Purchases by (U, V) with U < V.
	Flow map[[2]graph.Node]float64
}

// Options is the unified application-scenario configuration; see
// scenario.Options. Solve draws Trees trees (default 1) through the shared
// embedder pipeline unless an Embedder or Ensemble is injected; with several
// trees the cheapest per-tree solution is returned.
type Options = scenario.Options

// defaultTrees is the number of trees Solve draws when Options does not say
// otherwise. One tree is the algorithm of Theorem 10.2; more trees trade
// work for the usual best-of-K boost.
const defaultTrees = 1

// bestCable returns the cable choice minimising cost·⌈flow/capacity⌉ per
// unit of edge weight.
func bestCable(cables []CableType, flow float64) (idx, count int, costPerWeight float64) {
	idx = -1
	for i, c := range cables {
		n := int(math.Ceil(flow / c.Capacity))
		if n < 1 {
			n = 1
		}
		if cost := float64(n) * c.Cost; idx == -1 || cost < costPerWeight {
			idx, count, costPerWeight = i, n, cost
		}
	}
	return idx, count, costPerWeight
}

// Solve computes an expected O(log n)-approximate buy-at-bulk solution.
func Solve(g *graph.Graph, demands []Demand, cables []CableType, opts Options) (*Solution, error) {
	if len(cables) == 0 {
		return nil, fmt.Errorf("buyatbulk: no cable types")
	}
	for _, c := range cables {
		if c.Capacity <= 0 || c.Cost <= 0 {
			return nil, fmt.Errorf("buyatbulk: invalid cable type %+v", c)
		}
	}
	for _, d := range demands {
		if d.Amount <= 0 || int(d.S) >= g.N() || int(d.T) >= g.N() {
			return nil, fmt.Errorf("buyatbulk: invalid demand %+v", d)
		}
	}

	ens, err := opts.Resolve(g, defaultTrees)
	if err != nil {
		return nil, err
	}
	visit, err := opts.Visit(ens)
	if err != nil {
		return nil, err
	}
	var best *Solution
	for _, tree := range visit {
		sol, err := solveOnTree(g, tree, demands, cables, opts.Tracker)
		if err != nil {
			return nil, err
		}
		if best == nil || sol.Cost < best.Cost {
			best = sol
		}
	}
	return best, nil
}

// solveOnTree runs steps (2) and (3) against one sampled tree.
func solveOnTree(g *graph.Graph, tree *frt.Tree, demands []Demand, cables []CableType, tracker *par.Tracker) (*Solution, error) {
	tidx, err := frt.NewTreeIndex(tree)
	if err != nil {
		return nil, err
	}
	nt := tree.NumNodes()

	// (2) Route demands on the tree: per demand, +amount at both leaves and
	// −amount at their meeting height, then one children-before-parents
	// subtree-sum pass turns the deltas into per-tree-edge flow (keyed by
	// the child endpoint). O(|demands|·log depth + nt) total, replacing the
	// seed-era O(|demands|·depth) per-pair lockstep walks.
	delta := make([]float64, nt)
	for _, d := range demands {
		if d.S == d.T {
			continue
		}
		h := tidx.MergeHeight(d.S, d.T)
		delta[tidx.Ancestor(d.S, 0)] += d.Amount
		delta[tidx.Ancestor(d.S, h)] -= d.Amount
		delta[tidx.Ancestor(d.T, 0)] += d.Amount
		delta[tidx.Ancestor(d.T, h)] -= d.Amount
	}
	flow := make([]float64, nt)
	for _, u := range bottomUp(tree) {
		p := tree.Parent[u]
		if p == -1 {
			continue
		}
		flow[u] = delta[u]
		delta[p] += delta[u]
	}

	// (3) Buy cables per loaded tree edge and map them onto shortest
	// center-to-center paths in G: one routing fixpoint towards the distinct
	// parent centers builds next-hop tables for every source at once, and
	// each path is materialised by walking Next pointers (§7.5's "nodes
	// locally store the predecessor of shortest paths just like in APSP").
	type load struct {
		from, to graph.Node
		flow     float64
	}
	var loads []load
	targetSet := map[graph.Node]bool{}
	for child := int32(0); child < int32(nt); child++ {
		f := flow[child]
		p := tree.Parent[child]
		if f <= 0 || p == -1 {
			continue
		}
		from, to := tree.Center[child], tree.Center[p]
		if from == to {
			continue // zero-length hop: nothing to buy
		}
		loads = append(loads, load{from: from, to: to, flow: f})
		targetSet[to] = true
	}

	type edgeKey = [2]graph.Node
	counts := map[edgeKey]map[int]int{}
	flowBy := map[edgeKey]float64{}
	if len(loads) > 0 {
		targets := make([]graph.Node, 0, len(targetSet))
		for t := range targetSet {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		tables := mbf.RoutingTablesTo(g, targets, tracker)
		for _, l := range loads {
			cable, count, _ := bestCable(cables, l.flow)
			path := mbf.WalkRoute(tables, l.from, l.to)
			if path == nil {
				return nil, fmt.Errorf("buyatbulk: centers %d, %d disconnected", l.from, l.to)
			}
			for i := 1; i < len(path); i++ {
				k := orderedKey(path[i-1], path[i])
				if counts[k] == nil {
					counts[k] = map[int]int{}
				}
				counts[k][cable] += count
				flowBy[k] += l.flow
			}
		}
	}

	sol := &Solution{Flow: flowBy}
	for k, byCable := range counts {
		if _, ok := g.HasEdge(k[0], k[1]); !ok {
			return nil, fmt.Errorf("buyatbulk: purchase on non-edge {%d,%d}", k[0], k[1])
		}
		for cable, count := range byCable {
			sol.Purchases = append(sol.Purchases, Purchase{U: k[0], V: k[1], Cable: cable, Count: count})
		}
	}
	sol.price(g, cables)
	return sol, nil
}

// price sorts the purchases by (U, V, Cable) and sums their cost in that
// order. The purchases are gathered from maps, so without the sort two
// identical calls would list them, and round the floating-point sum, in
// different orders.
func (s *Solution) price(g *graph.Graph, cables []CableType) {
	slices.SortFunc(s.Purchases, func(a, b Purchase) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.Cable, b.Cable))
	})
	for _, p := range s.Purchases {
		w, _ := g.HasEdge(p.U, p.V)
		s.Cost += float64(p.Count) * cables[p.Cable].Cost * w
	}
}

// bottomUp returns the tree nodes ordered children-before-parents: FRT trees
// have uniform leaf depth, so a node's level is a topological key (every
// child sits exactly one level below its parent).
func bottomUp(t *frt.Tree) []int32 {
	order := make([]int32, t.NumNodes())
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return t.Level[order[i]] < t.Level[order[j]] })
	return order
}

func orderedKey(u, v graph.Node) [2]graph.Node {
	if u < v {
		return [2]graph.Node{u, v}
	}
	return [2]graph.Node{v, u}
}

// DirectShortestPath is the aggregation-free baseline: each demand is routed
// on a shortest path in G, flows are summed per edge, and the best cable
// combination is bought per edge.
func DirectShortestPath(g *graph.Graph, demands []Demand, cables []CableType) *Solution {
	flowBy := map[[2]graph.Node]float64{}
	sssp := map[graph.Node]*graph.SSSPResult{}
	for _, d := range demands {
		res, ok := sssp[d.S]
		if !ok {
			res = graph.Dijkstra(g, d.S)
			sssp[d.S] = res
		}
		path := res.PathTo(d.T)
		for i := 1; i < len(path); i++ {
			flowBy[orderedKey(path[i-1], path[i])] += d.Amount
		}
	}
	sol := &Solution{Flow: flowBy}
	for k, f := range flowBy {
		cable, count, _ := bestCable(cables, f)
		sol.Purchases = append(sol.Purchases, Purchase{U: k[0], V: k[1], Cable: cable, Count: count})
	}
	sol.price(g, cables)
	return sol
}

// LowerBound returns a simple volume bound: every unit of every demand must
// travel at least its shortest-path distance, paying at least the best
// cost-per-capacity rate among the cables.
func LowerBound(g *graph.Graph, demands []Demand, cables []CableType) float64 {
	bestRate := math.Inf(1)
	for _, c := range cables {
		if r := c.Cost / c.Capacity; r < bestRate {
			bestRate = r
		}
	}
	sssp := map[graph.Node]*graph.SSSPResult{}
	total := 0.0
	for _, d := range demands {
		res, ok := sssp[d.S]
		if !ok {
			res = graph.Dijkstra(g, d.S)
			sssp[d.S] = res
		}
		total += d.Amount * res.Dist[d.T]
	}
	return total * bestRate
}

// Validate checks structural soundness of a solution: every purchase sits
// on a real edge with positive count, and the purchased capacity of every
// edge covers the flow the solution routes over it.
func Validate(g *graph.Graph, cables []CableType, sol *Solution) error {
	capacity := map[[2]graph.Node]float64{}
	for _, p := range sol.Purchases {
		if _, ok := g.HasEdge(p.U, p.V); !ok {
			return fmt.Errorf("purchase on non-edge {%d,%d}", p.U, p.V)
		}
		if p.Count < 1 || p.Cable < 0 || p.Cable >= len(cables) {
			return fmt.Errorf("invalid purchase %+v", p)
		}
		capacity[orderedKey(p.U, p.V)] += float64(p.Count) * cables[p.Cable].Capacity
	}
	for k, f := range sol.Flow {
		if capacity[k] < f-1e-9 {
			return fmt.Errorf("edge {%d,%d}: capacity %v below flow %v", k[0], k[1], capacity[k], f)
		}
	}
	return nil
}
