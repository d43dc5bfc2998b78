// Package buyatbulk implements the buy-at-bulk network design application
// of §10 of Friedrichs & Lenzen: an expected O(log n)-approximation
// (Theorem 10.2) that
//
//	(1) embeds the graph into FRT trees drawn through the shared
//	    frt.Embedder pipeline,
//	(2) routes every demand along its unique tree path and buys, per tree
//	    edge with accumulated flow d_e, the cable type minimising
//	    c_i·⌈d_e/u_i⌉ (an O(1)-approximation on the tree) — flows are
//	    accumulated with an LCA-delta sweep: one lockstep walk per demand
//	    finds its LCA, and one subtree-sum pass turns the deltas into
//	    per-edge flow, and
//	(3) maps each loaded tree edge back to a shortest path in G between the
//	    cluster centers (§7.5) through routing.Tables, the application
//	    tier's one path expander, purchasing the same cables along it.
//	    Solve builds one Tables per call, whose single sparse-engine
//	    fixpoint targets the union of every visited tree's loaded parent
//	    centers; SolveOnTables reuses prebuilt tables — a daemon passes the
//	    ones it caches for /route — so a request runs no fixpoint.
//
// A next-hop entry is (exact distance, smallest neighbour on a shortest
// path) whichever other targets share its fixpoint, so both entry points
// walk the same paths and return bitwise-equal solutions.
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

	"parmbf/internal/apps/routing"
	"parmbf/internal/apps/scenario"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
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
// embedder pipeline unless an Ensemble is injected; with several
// trees the cheapest per-tree solution is returned.
type Options = scenario.Options

// defaultTrees is the number of trees Solve draws when Options does not say
// otherwise. One tree is the algorithm of Theorem 10.2; more trees trade
// work for the usual best-of-K boost.
const defaultTrees = 1

// bestCable returns the cable choice minimising cost·⌈flow/capacity⌉ per
// unit of edge weight. idx is -1 when some cable's count ⌈flow/capacity⌉
// does not fit in an int.
func bestCable(cables []CableType, flow float64) (idx, count int, costPerWeight float64) {
	idx = -1
	for i, c := range cables {
		q := math.Ceil(flow / c.Capacity)
		if !(q < float64(math.MaxInt)) {
			return -1, 0, 0
		}
		n := max(int(q), 1)
		if cost := float64(n) * c.Cost; idx == -1 || cost < costPerWeight {
			idx, count, costPerWeight = i, n, cost
		}
	}
	return idx, count, costPerWeight
}

// positiveFinite reports whether x is a finite number above zero.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// validate checks the cable catalogue and the demands against a graph of n
// nodes.
func validate(n int, demands []Demand, cables []CableType) error {
	if len(cables) == 0 {
		return fmt.Errorf("buyatbulk: no cable types")
	}
	for _, c := range cables {
		if !positiveFinite(c.Capacity) || !positiveFinite(c.Cost) {
			return fmt.Errorf("buyatbulk: invalid cable type %+v", c)
		}
	}
	for _, d := range demands {
		if !positiveFinite(d.Amount) || d.S < 0 || int(d.S) >= n || d.T < 0 || int(d.T) >= n {
			return fmt.Errorf("buyatbulk: invalid demand %+v", d)
		}
	}
	return nil
}

// Solve computes an expected O(log n)-approximate buy-at-bulk solution. It
// validates the visited trees, computes every tree's loaded hops, and
// expands them all through one routing.Tables built towards the union of
// their parent centers.
func Solve(g *graph.Graph, demands []Demand, cables []CableType, opts Options) (*Solution, error) {
	if err := validate(g.N(), demands, cables); err != nil {
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
	loads := make([][]load, len(visit))
	var targets []graph.Node
	for i, tree := range visit {
		if err := tree.Validate(); err != nil {
			return nil, fmt.Errorf("buyatbulk: tree %d: %w", i, err)
		}
		loads[i] = treeLoads(tree, demands)
		for _, l := range loads[i] {
			targets = append(targets, l.to)
		}
	}
	return cheapest(routing.New(g, targets, opts.Tracker), loads, cables)
}

// SolveOnTables is Solve on prebuilt routing tables: it visits the trees of
// rt that opts.FirstTree and opts.Trees select and expands every loaded hop
// through rt, so it runs no fixpoint. The other Options
// fields are unused. rt must route towards every internal-node center of its
// trees, as routing.Build's tables do; on tables built from the same
// ensemble it returns exactly what Solve returns.
func SolveOnTables(rt *routing.Tables, demands []Demand, cables []CableType, opts Options) (*Solution, error) {
	if err := validate(rt.Graph().N(), demands, cables); err != nil {
		return nil, err
	}
	lo, hi, err := opts.Span(rt.NumTrees())
	if err != nil {
		return nil, err
	}
	trees := rt.Trees()[lo:hi]
	loads := make([][]load, len(trees))
	for i, tree := range trees {
		loads[i] = treeLoads(tree, demands)
	}
	return cheapest(rt, loads, cables)
}

// load is one loaded tree edge as a center-to-center hop in G.
type load struct {
	from, to graph.Node
	flow     float64
}

// treeLoads runs step (2) on one valid tree: per demand, +amount at both
// leaves and −amount at their LCA, which a lockstep walk up from the two
// leaves (all at one depth) finds, then one children-before-parents
// subtree-sum pass turns the deltas into per-tree-edge flow (keyed by the
// child endpoint). O(|demands|·depth + nt) total. Every tree edge with
// positive flow and distinct endpoint centers becomes a hop from the child's
// center to the parent's.
func treeLoads(tree *frt.Tree, demands []Demand) []load {
	nt := tree.NumNodes()
	delta := make([]float64, nt)
	for _, d := range demands {
		if d.S == d.T {
			continue
		}
		ls, lt := tree.Leaf[d.S], tree.Leaf[d.T]
		lca, b := ls, lt
		for lca != b {
			lca, b = tree.Parent[lca], tree.Parent[b]
		}
		delta[ls] += d.Amount
		delta[lca] -= d.Amount
		delta[lt] += d.Amount
		delta[lca] -= d.Amount
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
	var loads []load
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
	}
	return loads
}

// cheapest buys every tree's loads through rt and returns the cheapest
// per-tree solution (the first on ties).
func cheapest(rt *routing.Tables, loads [][]load, cables []CableType) (*Solution, error) {
	var best *Solution
	for _, ls := range loads {
		sol, err := buy(rt, ls, cables)
		if err != nil {
			return nil, err
		}
		if best == nil || sol.Cost < best.Cost {
			best = sol
		}
	}
	return best, nil
}

// buy runs step (3) for one tree: it buys cables per loaded hop and lays
// them along the hop's shortest center-to-center path in G, which rt walks
// from its next-hop tables (§7.5's "nodes locally store the predecessor of
// shortest paths just like in APSP").
func buy(rt *routing.Tables, loads []load, cables []CableType) (*Solution, error) {
	g := rt.Graph()
	type edgeKey = [2]graph.Node
	counts := map[edgeKey]map[int]int{}
	flowBy := map[edgeKey]float64{}
	for _, l := range loads {
		cable, count, _ := bestCable(cables, l.flow)
		if cable < 0 {
			return nil, fmt.Errorf("buyatbulk: flow %v needs more cables than an int counts", l.flow)
		}
		path := rt.Path(l.from, l.to)
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
	if math.IsInf(sol.Cost, 0) || math.IsNaN(sol.Cost) {
		return nil, fmt.Errorf("buyatbulk: total cost %v is not finite", sol.Cost)
	}
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
// combination is bought per edge. It expects demands and cables that Solve
// accepts.
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
