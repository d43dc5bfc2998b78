package routing

import (
	"slices"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
)

// TestPathOnNewTables pins the expander contract of Tables.Path on tables
// built by New towards a few targets: a hop into a target walks forward, a
// hop out of one walks the reverse table path, and every expanded path is a
// shortest path of G made of real edges. Hops with no target endpoint, and
// out-of-range nodes, expand to nil; tables without trees refuse Route.
func TestPathOnNewTables(t *testing.T) {
	g := graph.RandomConnected(50, 130, 6, par.NewRNG(12))
	targets := []graph.Node{3, 17, 41}
	rt := New(g, targets, nil)
	dist := make(map[graph.Node][]float64)
	for _, s := range targets {
		dist[s] = graph.Dijkstra(g, s).Dist
	}
	for _, tgt := range targets {
		for v := graph.Node(0); int(v) < g.N(); v++ {
			fwd := rt.Path(v, tgt)
			if len(fwd) == 0 || fwd[0] != v || fwd[len(fwd)-1] != tgt {
				t.Fatalf("Path(%d, %d) = %v", v, tgt, fwd)
			}
			length := 0.0
			for i := 1; i < len(fwd); i++ {
				w, ok := g.HasEdge(fwd[i-1], fwd[i])
				if !ok {
					t.Fatalf("Path(%d, %d): hop {%d,%d} is not an edge", v, tgt, fwd[i-1], fwd[i])
				}
				length += w
			}
			if d := dist[tgt][v]; length > d+1e-9 || length < d-1e-9 {
				t.Fatalf("Path(%d, %d) has length %v, shortest %v", v, tgt, length, d)
			}
			if isTarget := slices.Contains(targets, v); !isTarget {
				rev := rt.Path(tgt, v)
				slices.Reverse(rev)
				if !slices.Equal(rev, fwd) {
					t.Fatalf("Path(%d, %d) is not the reversed Path(%d, %d)", tgt, v, v, tgt)
				}
			}
		}
	}
	if p := rt.Path(0, 1); p != nil {
		t.Fatalf("hop between two non-targets expanded to %v", p)
	}
	if rt.Path(-1, 3) != nil || rt.Path(3, graph.Node(g.N())) != nil {
		t.Fatal("out-of-range hop expanded")
	}
	if want := mbf.RoutingTablesTo(g, targets, nil).Walk(9, 17); !slices.Equal(rt.Path(9, 17), want) {
		t.Fatalf("Path(9, 17) = %v, the next-hop walk gives %v", rt.Path(9, 17), want)
	}
	if _, err := rt.Route(0, 1); err == nil {
		t.Fatal("Route on tables without trees succeeded")
	}
}
