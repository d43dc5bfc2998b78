package mbf

import (
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// followRoutes walks next-hop pointers from v towards target, accumulating
// edge weights; it returns the travelled distance and whether the walk
// reached the target within n hops.
func followRoutes(g *graph.Graph, tables *Routes, v, target graph.Node) (float64, bool) {
	total := 0.0
	cur := v
	for step := 0; step <= g.N(); step++ {
		if cur == target {
			return total, true
		}
		_, next, ok := tables.Route(cur, target)
		if !ok || next < 0 {
			return total, false
		}
		w, ok := g.HasEdge(cur, next)
		if !ok {
			return total, false
		}
		total += w
		cur = next
	}
	return total, false
}

func TestRoutingTablesExactDistances(t *testing.T) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(40, 100, 6, rng)
	tables := RoutingTables(g, 0, g.N(), nil)
	exact := graph.APSPDijkstra(g)
	for v := 0; v < g.N(); v++ {
		if tables.Dist[v].Len() != g.N() {
			t.Fatalf("node %d has %d routes, want %d", v, tables.Dist[v].Len(), g.N())
		}
		for w := 0; w < g.N(); w++ {
			d, _, ok := tables.Route(graph.Node(v), graph.Node(w))
			if !ok {
				t.Fatalf("node %d missing route to %d", v, w)
			}
			if d != exact.At(v, w) {
				t.Fatalf("route (%d,%d): dist %v, want %v", v, w, d, exact.At(v, w))
			}
		}
	}
}

func TestRoutingTablesNextHopsForm_ShortestPaths(t *testing.T) {
	rng := par.NewRNG(2)
	g := graph.RandomConnected(35, 80, 6, rng)
	tables := RoutingTables(g, 0, g.N(), nil)
	exact := graph.APSPDijkstra(g)
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if v == w {
				continue
			}
			got, reached := followRoutes(g, tables, graph.Node(v), graph.Node(w))
			if !reached {
				t.Fatalf("routing from %d to %d did not reach the target", v, w)
			}
			if got != exact.At(v, w) {
				t.Fatalf("routing (%d,%d) travelled %v, want %v", v, w, got, exact.At(v, w))
			}
		}
	}
}

func TestRoutingTablesSelfRoute(t *testing.T) {
	g := graph.PathGraph(5, 1)
	tables := RoutingTables(g, 0, g.N(), nil)
	for v := 0; v < g.N(); v++ {
		d, next, ok := tables.Route(graph.Node(v), graph.Node(v))
		if !ok || d != 0 || next != -1 {
			t.Fatalf("self route of %d wrong: dist %v, next %d, ok %v", v, d, next, ok)
		}
	}
}

func TestRoutingTablesTopK(t *testing.T) {
	rng := par.NewRNG(3)
	g := graph.RandomConnected(30, 70, 5, rng)
	const k = 4
	tables := RoutingTables(g, k, g.N(), nil)
	exact := graph.APSPDijkstra(g)
	for v := 0; v < g.N(); v++ {
		if tables.Dist[v].Len() != k {
			t.Fatalf("node %d keeps %d routes, want %d", v, tables.Dist[v].Len(), k)
		}
		// Every kept route is exact and among the k nearest.
		kept := 0
		for w := 0; w < g.N(); w++ {
			if d, _, ok := tables.Route(graph.Node(v), graph.Node(w)); ok {
				if d != exact.At(v, w) {
					t.Fatalf("top-k route (%d,%d) dist %v, want %v", v, w, d, exact.At(v, w))
				}
				kept++
			}
		}
		if kept != k {
			t.Fatalf("node %d: %d routes via Route", v, kept)
		}
	}
}

func TestRouteMapGetAbsent(t *testing.T) {
	g := graph.PathGraph(6, 1)
	tables := RoutingTablesTo(g, []graph.Node{3}, nil)
	if d, next, ok := tables.Route(0, 5); ok || next != -1 || d != semiring.Inf {
		t.Fatalf("absent target found: dist %v, next %d", d, next)
	}
	if _, _, ok := tables.Route(0, 1); ok {
		t.Fatal("absent target found (before)")
	}
	if p := tables.Walk(0, 5); p != nil {
		t.Fatalf("walk towards a non-target gave %v", p)
	}
}

// TestRoutingTablesToMatchDijkstra is the next-hop reference: against one
// Dijkstra per target, every table entry holds the exact distance bitwise,
// its hop is the smallest neighbour w with d(w,t) + ω(v,w) == d(v,t) (-1 at
// the target itself), and Walk travels exactly d(v,t). The unit-weight grid
// has many equally short paths, so the tie rule is exercised on most
// entries.
func TestRoutingTablesToMatchDijkstra(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-unit-weights", graph.GridGraph(7, 9, 1, par.NewRNG(4))},
		{"random", graph.RandomConnected(60, 150, 6, par.NewRNG(5))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			var targets []graph.Node
			for v := 0; v < g.N(); v += 3 {
				targets = append(targets, graph.Node(v))
			}
			tables := RoutingTablesTo(g, targets, nil)
			for _, tgt := range targets {
				dist := graph.Dijkstra(g, tgt).Dist
				for vi := 0; vi < g.N(); vi++ {
					v := graph.Node(vi)
					d, next, ok := tables.Route(v, tgt)
					if !ok || d != dist[v] {
						t.Fatalf("route (%d,%d): dist %v (present %v), Dijkstra %v", v, tgt, d, ok, dist[v])
					}
					want := graph.Node(-1)
					if v != tgt {
						for _, a := range g.Neighbors(v) {
							if dist[a.To]+a.Weight == dist[v] && (want < 0 || a.To < want) {
								want = a.To
							}
						}
					}
					if next != want {
						t.Fatalf("route (%d,%d): next hop %d, want the smallest supporting neighbour %d", v, tgt, next, want)
					}
					path := tables.Walk(v, tgt)
					if len(path) == 0 || path[0] != v || path[len(path)-1] != tgt {
						t.Fatalf("Walk(%d, %d) = %v", v, tgt, path)
					}
					length := 0.0
					for i := 1; i < len(path); i++ {
						w, ok := g.HasEdge(path[i-1], path[i])
						if !ok {
							t.Fatalf("Walk(%d, %d): hop {%d,%d} is not an edge", v, tgt, path[i-1], path[i])
						}
						length += w
					}
					if length != dist[v] {
						t.Fatalf("Walk(%d, %d) travelled %v, want %v", v, tgt, length, dist[v])
					}
				}
			}
		})
	}
}
