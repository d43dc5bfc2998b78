package graph

import (
	"testing"

	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func TestBuilderAndAccessors(t *testing.T) {
	g := NewBuilder(4).Add(0, 1, 2).Add(1, 2, 3).Add(0, 3, 1.5).Freeze()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 4, 3", g.N(), g.M())
	}
	if w, ok := g.HasEdge(1, 0); !ok || w != 2 {
		t.Fatalf("HasEdge(1,0) = %v,%v", w, ok)
	}
	if _, ok := g.HasEdge(2, 3); ok {
		t.Fatal("phantom edge {2,3}")
	}
	if g.Weight(2, 2) != 0 {
		t.Fatal("ω(v,v) should be 0")
	}
	if !semiring.IsInf(g.Weight(2, 3)) {
		t.Fatal("ω of non-edge should be ∞")
	}
	if g.Degree(0) != 2 {
		t.Fatalf("deg(0) = %d, want 2", g.Degree(0))
	}
}

func TestFreezeParallelKeepsLighter(t *testing.T) {
	g := NewBuilder(2).Add(0, 1, 5).Add(1, 0, 3).Add(0, 1, 9).Freeze()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (parallel edges collapsed)", g.M())
	}
	if w, _ := g.HasEdge(0, 1); w != 3 {
		t.Fatalf("weight = %v, want 3 (lightest)", w)
	}
	if w, _ := g.HasEdge(1, 0); w != 3 {
		t.Fatal("reverse arc not updated")
	}
}

func TestBuilderAddPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"loop", func() { NewBuilder(2).Add(1, 1, 1) }},
		{"zero weight", func() { NewBuilder(2).Add(0, 1, 0) }},
		{"negative weight", func() { NewBuilder(2).Add(0, 1, -1) }},
		{"inf weight", func() { NewBuilder(2).Add(0, 1, semiring.Inf) }},
		{"out of range", func() { NewBuilder(2).Add(0, 5, 1) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := NewBuilder(4).Add(2, 1, 4).Add(0, 3, 1).Add(0, 1, 2).Freeze()
	es := g.Edges()
	want := []Edge{{0, 1, 2}, {0, 3, 1}, {1, 2, 4}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestEdgesSortedNoDuplicatesAfterDedup(t *testing.T) {
	// Insert edges out of order, reversed, and duplicated; Edges() must
	// come back strictly (U,V)-sorted with every duplicate collapsed to
	// the lightest weight, in a single linear pass.
	b := NewBuilder(5)
	b.Add(3, 4, 9)
	b.Add(1, 0, 7)  // reversed
	b.Add(0, 1, 4)  // duplicate, lighter: must win
	b.Add(4, 3, 11) // reversed duplicate, heavier: must lose
	b.Add(2, 0, 1)
	b.Add(0, 2, 1) // exact duplicate
	b.Add(1, 4, 3)
	g := b.Freeze()
	es := g.Edges()
	want := []Edge{{0, 1, 4}, {0, 2, 1}, {1, 4, 3}, {3, 4, 9}}
	if len(es) != len(want) || g.M() != len(want) {
		t.Fatalf("Edges = %v (M=%d), want %v", es, g.M(), want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
	for i := 1; i < len(es); i++ {
		prev, cur := es[i-1], es[i]
		if cur.U < prev.U || (cur.U == prev.U && cur.V <= prev.V) {
			t.Fatalf("Edges not strictly (U,V)-sorted at %d: %v then %v", i, prev, cur)
		}
	}
	// The arc rows themselves must be sorted and duplicate-free too.
	for v := Node(0); int(v) < g.N(); v++ {
		row := g.Neighbors(v)
		for i := 1; i < len(row); i++ {
			if row[i].To <= row[i-1].To {
				t.Fatalf("row %d not strictly sorted: %v", v, row)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewBuilder(3).Add(0, 1, 2).Add(1, 2, 1).Freeze()
	h := g.Clone()
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("clone differs from original")
	}
	for v := Node(0); int(v) < g.N(); v++ {
		a, b := g.Neighbors(v), h.Neighbors(v)
		if len(a) != len(b) {
			t.Fatal("clone row length differs")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("clone arc differs")
			}
		}
		if len(a) > 0 && &a[0] == &b[0] {
			t.Fatal("clone shares backing arc array with original")
		}
	}
}

func TestBuilderFromGraphExtends(t *testing.T) {
	g := NewBuilder(3).Add(0, 1, 2).Freeze()
	h := g.Builder().Add(1, 2, 1).Freeze()
	if g.M() != 1 || h.M() != 2 {
		t.Fatalf("extend wrong: g.M=%d h.M=%d", g.M(), h.M())
	}
	if w, ok := h.HasEdge(0, 1); !ok || w != 2 {
		t.Fatal("extended graph lost original edge")
	}
}

func TestConnected(t *testing.T) {
	b := NewBuilder(4).Add(0, 1, 1).Add(2, 3, 1)
	if b.Freeze().Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !b.Add(1, 2, 1).Freeze().Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if !New(0).Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestWeightRange(t *testing.T) {
	g := NewBuilder(3).Add(0, 1, 2).Add(1, 2, 7).Freeze()
	min, max := g.WeightRange()
	if min != 2 || max != 7 {
		t.Fatalf("WeightRange = %v, %v", min, max)
	}
}

// diamond returns the classic diamond graph where the direct edge 0–3 is
// heavier than the two-hop route.
func diamond() *Graph {
	return NewBuilder(4).Add(0, 1, 1).Add(1, 3, 1).Add(0, 2, 2).Add(2, 3, 2).Add(0, 3, 5).Freeze()
}

func TestDijkstraDistances(t *testing.T) {
	g := diamond()
	res := Dijkstra(g, 0)
	want := []float64{0, 1, 2, 2}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Fatalf("dist(0,%d) = %v, want %v", v, res.Dist[v], d)
		}
	}
	if res.Hops[3] != 2 {
		t.Fatalf("hop(0,3) = %d, want 2 (min-hop among shortest paths)", res.Hops[3])
	}
	path := res.PathTo(3)
	if len(path) != 3 || path[0] != 0 || path[2] != 3 {
		t.Fatalf("PathTo(3) = %v", path)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewBuilder(3).Add(0, 1, 1).Freeze()
	res := Dijkstra(g, 0)
	if !semiring.IsInf(res.Dist[2]) {
		t.Fatal("unreachable node has finite distance")
	}
	if res.PathTo(2) != nil {
		t.Fatal("PathTo(unreachable) should be nil")
	}
}

func TestDijkstraMinHopTieBreaking(t *testing.T) {
	// Two shortest 0→3 paths of weight 3: 0-1-2-3 (3 hops) and 0-3 via a
	// direct edge of weight 3 (1 hop). Hops must report 1.
	g := NewBuilder(4).Add(0, 1, 1).Add(1, 2, 1).Add(2, 3, 1).Add(0, 3, 3).Freeze()
	res := Dijkstra(g, 0)
	if res.Dist[3] != 3 {
		t.Fatalf("dist = %v", res.Dist[3])
	}
	if res.Hops[3] != 1 {
		t.Fatalf("hop(0,3) = %d, want 1", res.Hops[3])
	}
}

func TestBellmanFordHopLimits(t *testing.T) {
	g := diamond()
	d0 := BellmanFord(g, 0, 0)
	if d0[0] != 0 || !semiring.IsInf(d0[1]) {
		t.Fatalf("0-hop distances wrong: %v", d0)
	}
	d1 := BellmanFord(g, 0, 1)
	if d1[3] != 5 {
		t.Fatalf("dist¹(0,3) = %v, want 5 (direct edge)", d1[3])
	}
	d2 := BellmanFord(g, 0, 2)
	if d2[3] != 2 {
		t.Fatalf("dist²(0,3) = %v, want 2", d2[3])
	}
}

func TestBellmanFordMatchesDijkstraAtFixpoint(t *testing.T) {
	rng := par.NewRNG(1)
	g := RandomConnected(60, 150, 10, rng)
	for _, src := range []Node{0, 17, 59} {
		bf := BellmanFord(g, src, g.N())
		dj := Dijkstra(g, src)
		for v := range bf {
			if bf[v] != dj.Dist[v] {
				t.Fatalf("src %d node %d: BF %v vs Dijkstra %v", src, v, bf[v], dj.Dist[v])
			}
		}
	}
}

func TestSPDPath(t *testing.T) {
	g := PathGraph(10, 1)
	if spd := SPD(g); spd != 9 {
		t.Fatalf("SPD(path10) = %d, want 9", spd)
	}
}

func TestSPDShortcutEdge(t *testing.T) {
	// A path with a heavy chord: the chord does not lie on any shortest
	// path, so SPD remains that of the path.
	g := PathGraph(6, 1).Builder().Add(0, 5, 100).Freeze()
	if spd := SPD(g); spd != 5 {
		t.Fatalf("SPD = %d, want 5", spd)
	}
	// A light chord creates a 1-hop shortest path between the endpoints.
	h := PathGraph(6, 1).Builder().Add(0, 5, 1).Freeze()
	if spd := SPD(h); spd >= 5 {
		t.Fatalf("SPD = %d, want < 5 after shortcut", spd)
	}
}

func TestHopDiameter(t *testing.T) {
	g := PathGraph(7, 3.5)
	if d := HopDiameter(g); d != 6 {
		t.Fatalf("D(path7) = %d, want 6", d)
	}
	c := CycleGraph(8, 1)
	if d := HopDiameter(c); d != 4 {
		t.Fatalf("D(cycle8) = %d, want 4", d)
	}
}

func TestAPSPIsMetric(t *testing.T) {
	rng := par.NewRNG(3)
	g := RandomConnected(30, 60, 5, rng)
	m := APSPDijkstra(g)
	if !m.IsMetric(1e-9) {
		t.Fatal("exact APSP distances are not a metric")
	}
}

func TestIsMetricDetectsViolations(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 2, 1)
	m.Set(2, 1, 1)
	m.Set(0, 2, 5) // violates triangle inequality via 1
	m.Set(2, 0, 5)
	if m.IsMetric(0) {
		t.Fatal("triangle violation undetected")
	}
	m.Set(0, 2, 2)
	if m.IsMetric(0) {
		t.Fatal("asymmetry undetected")
	}
	m.Set(2, 0, 2)
	if !m.IsMetric(0) {
		t.Fatal("valid metric rejected")
	}
}

func TestGenerators(t *testing.T) {
	rng := par.NewRNG(4)
	cases := []struct {
		name string
		g    *Graph
		n    int
	}{
		{"path", PathGraph(12, 1), 12},
		{"cycle", CycleGraph(9, 2), 9},
		{"grid", GridGraph(5, 7, 4, rng), 35},
		{"random", RandomConnected(50, 120, 10, rng), 50},
		{"lollipop", Lollipop(10, 20), 30},
		{"clustered", Clustered(4, 10, 100, rng), 40},
		{"geometric", RandomGeometric(40, 0.2, rng), 40},
	}
	for _, c := range cases {
		if c.g.N() != c.n {
			t.Fatalf("%s: N = %d, want %d", c.name, c.g.N(), c.n)
		}
		if !c.g.Connected() {
			t.Fatalf("%s: not connected", c.name)
		}
		min, _ := c.g.WeightRange()
		if min <= 0 {
			t.Fatalf("%s: non-positive weight", c.name)
		}
	}
}

func TestRandomConnectedEdgeCount(t *testing.T) {
	rng := par.NewRNG(5)
	g := RandomConnected(20, 50, 3, rng)
	if g.M() != 50 {
		t.Fatalf("M = %d, want 50", g.M())
	}
}

func TestRandomConnectedPanics(t *testing.T) {
	rng := par.NewRNG(6)
	for _, c := range []struct{ n, m int }{{10, 5}, {5, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d m=%d: no panic", c.n, c.m)
				}
			}()
			RandomConnected(c.n, c.m, 2, rng)
		}()
	}
}

func TestLollipopHighSPD(t *testing.T) {
	g := Lollipop(8, 30)
	if spd := SPD(g); spd < 30 {
		t.Fatalf("lollipop SPD = %d, want ≥ 30", spd)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := par.NewRNG(20)
	g := BarabasiAlbert(200, 2, 4, rng)
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("BA graph disconnected")
	}
	// Heavy tail: the maximum degree should far exceed the attach count.
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(Node(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8 {
		t.Fatalf("max degree %d suspiciously small for preferential attachment", maxDeg)
	}
	// Edge count: clique + ~attach per new node.
	if g.M() < 200 || g.M() > 2*200+3 {
		t.Fatalf("M = %d out of expected band", g.M())
	}
}

func TestBarabasiAlbertSmall(t *testing.T) {
	rng := par.NewRNG(21)
	g := BarabasiAlbert(3, 5, 2, rng)
	if !g.Connected() || g.N() != 3 {
		t.Fatal("degenerate BA graph wrong")
	}
}
