package mbf

import (
	"sort"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// This file implements the collection of MBF-like algorithms of §3 as thin
// configurations of the generic Runner: each algorithm is nothing more than
// a choice of semimodule, filter, and initial states — exactly the recipe
// the paper's conclusion spells out.

// SSSP computes the h-hop distances dist^h(source, ·, G) by h iterations of
// the classic multi-hop MBF recursion over S_{min,+} viewed as a module over
// itself (Example 3.3). Use h ≥ SPD(G) (e.g. n−1) for exact distances.
func SSSP(g *graph.Graph, source graph.Node, h int, tracker *par.Tracker) []float64 {
	r := &Runner[float64, float64]{
		Graph:   g,
		Module:  semiring.MinPlusSelf{},
		Weight:  MinPlusWeight,
		Tracker: tracker,
	}
	x0 := make([]float64, g.N())
	for v := range x0 {
		x0[v] = semiring.Inf
	}
	x0[source] = 0
	return r.Run(x0, h)
}

// SourceDetection solves (S, h, d, k)-source detection (Example 3.2): every
// node learns the k closest sources within h hops and distance at most d,
// as a distance map. sources[v] reports whether v ∈ S; k ≤ 0 means
// unbounded; d may be ∞.
//
// The h iterations run through the frontier-driven sparse engine capped at
// h: once the filtered states reach their fixpoint the remaining iterations
// are identities (Corollary 2.17 filtering plus F(x) = x ⇒ F^j(x) = x), so
// the output is exactly r^V A^h x(0) at a fraction of the work whenever the
// graph stabilises before hop h.
func SourceDetection(g *graph.Graph, sources func(graph.Node) bool, h int, d float64, k int, tracker *par.Tracker) []semiring.DistMap {
	r := &Runner[float64, semiring.DistMap]{
		Graph:         g,
		Module:        semiring.DistMapModule{},
		Filter:        semiring.TopKFilter(k, d, sources),
		FilterInPlace: semiring.TopKFilterInPlace(k, d, sources),
		Weight:        MinPlusWeight,
		Size:          func(x semiring.DistMap) int { return x.Len() + 1 },
		Tracker:       tracker,
	}
	x0 := make([]semiring.DistMap, g.N())
	for v := range x0 {
		if sources == nil || sources(graph.Node(v)) {
			x0[v] = semiring.SingletonDist(graph.Node(v), 0)
		}
	}
	out, _ := r.RunToFixpoint(x0, h)
	return out
}

// APSP computes the h-hop distances between all pairs (Example 3.5):
// (V, h, ∞, n)-source detection with the identity filter. The result maps
// each node v to its distance vector as a distance map.
func APSP(g *graph.Graph, h int, tracker *par.Tracker) []semiring.DistMap {
	return SourceDetection(g, nil, h, semiring.Inf, 0, tracker)
}

// KSSP computes, for each node, the k closest nodes within h hops
// (Example 3.4): (V, h, ∞, k)-source detection.
func KSSP(g *graph.Graph, k, h int, tracker *par.Tracker) []semiring.DistMap {
	return SourceDetection(g, nil, h, semiring.Inf, k, tracker)
}

// MSSP computes each node's h-hop distances to all designated sources
// (Example 3.6): (S, h, ∞, |S|)-source detection.
func MSSP(g *graph.Graph, sources []graph.Node, h int, tracker *par.Tracker) []semiring.DistMap {
	isSource := sourceSet(g.N(), sources)
	return SourceDetection(g, isSource, h, semiring.Inf, 0, tracker)
}

// ForestFire solves the sensor-network problem of Example 3.7: every node
// learns whether some burning node lies within distance d, running over
// S_{min,+} as a module over itself with the threshold filter (3.5). The
// result is each node's distance to the nearest fire if it is at most d, and
// ∞ otherwise. The computation is anonymous — no node IDs are exchanged.
func ForestFire(g *graph.Graph, onFire []graph.Node, d float64, tracker *par.Tracker) []float64 {
	r := &Runner[float64, float64]{
		Graph:  g,
		Module: semiring.MinPlusSelf{},
		Filter: func(x float64) float64 {
			if x <= d {
				return x
			}
			return semiring.Inf
		},
		Weight:  MinPlusWeight,
		Tracker: tracker,
	}
	x0 := make([]float64, g.N())
	for v := range x0 {
		x0[v] = semiring.Inf
	}
	for _, v := range onFire {
		x0[v] = 0
	}
	out, _ := r.RunToFixpoint(x0, g.N())
	return out
}

// SSWP computes the h-hop widest-path distances width^h(source, ·, G)
// (Example 3.13) over the max-min semiring.
func SSWP(g *graph.Graph, source graph.Node, h int, tracker *par.Tracker) []float64 {
	r := &Runner[float64, float64]{
		Graph:   g,
		Module:  semiring.MaxMinSelf{},
		Weight:  MaxMinWeight,
		Tracker: tracker,
	}
	x0 := make([]float64, g.N()) // 0 = ⊥ of S_{max,min}
	x0[source] = semiring.Inf
	return r.Run(x0, h)
}

// APWP computes all-pairs h-hop widest-path distances (Example 3.14) over
// the width-map semimodule W.
func APWP(g *graph.Graph, h int, tracker *par.Tracker) []semiring.WidthMap {
	return MSWP(g, nil, h, tracker)
}

// MSWP computes h-hop widest-path distances to the designated sources
// (Example 3.15); nil sources means all nodes (APWP).
func MSWP(g *graph.Graph, sources []graph.Node, h int, tracker *par.Tracker) []semiring.WidthMap {
	r := &Runner[float64, semiring.WidthMap]{
		Graph:   g,
		Module:  semiring.WidthMapModule{},
		Weight:  MaxMinWeight,
		Size:    func(x semiring.WidthMap) int { return len(x) + 1 },
		Tracker: tracker,
	}
	isSource := sourceSet(g.N(), sources)
	x0 := make([]semiring.WidthMap, g.N())
	for v := range x0 {
		if sources == nil || isSource(graph.Node(v)) {
			x0[v] = semiring.WidthMap{{Node: graph.Node(v), Width: semiring.Inf}}
		}
	}
	return r.Run(x0, h)
}

// Connectivity reports which node pairs are connected by at most h-hop paths
// (Example 3.25) over the Boolean semiring: result[v] is the sorted set of
// nodes v can reach. Unlike the rest of the library this works on
// disconnected graphs.
func Connectivity(g *graph.Graph, h int, tracker *par.Tracker) [][]semiring.NodeID {
	r := &Runner[bool, []semiring.NodeID]{
		Graph:   g,
		Module:  semiring.BoolSet{},
		Weight:  BoolWeight,
		Size:    func(x []semiring.NodeID) int { return len(x) + 1 },
		Tracker: tracker,
	}
	x0 := make([][]semiring.NodeID, g.N())
	for v := range x0 {
		x0[v] = []semiring.NodeID{graph.Node(v)}
	}
	return r.Run(x0, h)
}

// KShortestDistances solves the k-SDP of Definition 3.21 (Example 3.23) over
// the all-paths semiring: for every node v it returns the k lightest
// v-to-target paths with their weights, found within h hops. With distinct
// set, it solves k-DSDP (Example 3.24): the k lightest *distinct* weights,
// one lexicographically-least path each.
func KShortestDistances(g *graph.Graph, target graph.Node, k, h int, distinct bool, tracker *par.Tracker) []semiring.PathSet {
	r := &Runner[semiring.PathSet, semiring.PathSet]{
		Graph:   g,
		Module:  semiring.AllPathsSelf{},
		Filter:  semiring.KShortestFilter(k, target, distinct),
		Weight:  PathWeight,
		Size:    func(x semiring.PathSet) int { return len(x) + 1 },
		Tracker: tracker,
	}
	x0 := make([]semiring.PathSet, g.N())
	for v := range x0 {
		x0[v] = semiring.PathSet{semiring.MakePath(graph.Node(v)): 0}
	}
	return r.Run(x0, h)
}

// sourceSet converts a source list into a membership predicate; nil input
// yields a predicate accepting every node.
func sourceSet(n int, sources []graph.Node) func(graph.Node) bool {
	if sources == nil {
		return nil
	}
	set := make([]bool, n)
	for _, s := range sources {
		set[s] = true
	}
	return func(v graph.Node) bool { return set[v] }
}

// RoutingTables computes, for every node, a routing table of its k nearest
// targets (k ≤ 0: all nodes): distance plus the first hop of a shortest
// path. It instantiates the engine with the next-hop-enriched min-plus
// algebra of internal/semiring (HopSemiring / RouteMapModule) — the
// predecessor bookkeeping that §7.5 of the paper uses to trace tree edges
// back to graph paths, expressed as just another MBF-like algorithm.
func RoutingTables(g *graph.Graph, k, h int, tracker *par.Tracker) []semiring.RouteMap {
	r := &Runner[semiring.Hop, semiring.RouteMap]{
		Graph:         g,
		Module:        semiring.RouteMapModule{},
		Filter:        routeTopK(k),
		FilterInPlace: routeTopKInPlace(k),
		Weight:        HopWeight,
		Size:          func(x semiring.RouteMap) int { return len(x) + 1 },
		Tracker:       tracker,
	}
	x0 := make([]semiring.RouteMap, g.N())
	for v := range x0 {
		x0[v] = semiring.RouteMap{{Target: graph.Node(v), Dist: 0, Next: semiring.NoVia}}
	}
	x, _ := r.RunToFixpoint(x0, h)
	return x
}

// RoutingTablesTo computes, for every node, the full routing table towards a
// restricted target set: table[v] holds one entry per target with the exact
// shortest-path distance and the first hop of a shortest path (ties broken
// towards the smaller next hop, so tables are deterministic). Only targets
// seed a state, so intermediate state size — and the fixpoint's work — is
// bounded by |targets| per node rather than n. This is the §7.5 primitive
// the application tier uses to materialise a tree edge as a graph path:
// walking Next pointers from a node towards a target traces a shortest path
// one trusted hop at a time.
func RoutingTablesTo(g *graph.Graph, targets []graph.Node, tracker *par.Tracker) []semiring.RouteMap {
	r := &Runner[semiring.Hop, semiring.RouteMap]{
		Graph:   g,
		Module:  semiring.RouteMapModule{},
		Weight:  HopWeight,
		Size:    func(x semiring.RouteMap) int { return len(x) + 1 },
		Tracker: tracker,
	}
	x0 := make([]semiring.RouteMap, g.N())
	for _, t := range targets {
		x0[t] = semiring.RouteMap{{Target: t, Dist: 0, Next: semiring.NoVia}}
	}
	x, _ := r.RunToFixpoint(x0, g.N())
	return x
}

// WalkRoute materialises the next-hop path from→to recorded in tables (as
// produced by RoutingTables / RoutingTablesTo): it follows Next pointers —
// each hop is an incident edge and strictly decreases the remaining
// distance — until it arrives. The returned path is a shortest from→to path
// whose total weight is tables[from].Get(to).Dist. Returns nil when the
// tables record no route.
func WalkRoute(tables []semiring.RouteMap, from, to graph.Node) []graph.Node {
	path := []graph.Node{from}
	cur := from
	for cur != to {
		r, ok := tables[cur].Get(to)
		if !ok || r.Next == semiring.NoVia || len(path) > len(tables) {
			return nil
		}
		cur = graph.Node(r.Next)
		path = append(path, cur)
	}
	return path
}

// routeTopK keeps the k nearest routes (ties broken by target ID); k ≤ 0
// keeps everything.
func routeTopK(k int) semiring.Filter[semiring.RouteMap] {
	if k <= 0 {
		return nil
	}
	return func(x semiring.RouteMap) semiring.RouteMap {
		if len(x) <= k {
			return x
		}
		kept := append(semiring.RouteMap(nil), x...)
		return routeTruncate(kept, k)
	}
}

// routeTopKInPlace is the ownership-taking variant of routeTopK: it reorders
// and truncates its argument instead of copying, for engines that hand the
// filter exclusively owned states.
func routeTopKInPlace(k int) semiring.Filter[semiring.RouteMap] {
	if k <= 0 {
		return nil
	}
	return func(x semiring.RouteMap) semiring.RouteMap {
		if len(x) <= k {
			return x
		}
		return routeTruncate(x, k)
	}
}

// routeTruncate keeps the k nearest routes of kept (ties broken by target
// ID), restoring the sorted-by-target representation invariant.
func routeTruncate(kept semiring.RouteMap, k int) semiring.RouteMap {
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Dist != kept[j].Dist {
			return kept[i].Dist < kept[j].Dist
		}
		return kept[i].Target < kept[j].Target
	})
	kept = kept[:k]
	sort.Slice(kept, func(i, j int) bool { return kept[i].Target < kept[j].Target })
	return kept
}
