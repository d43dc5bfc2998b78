package buyatbulk

import (
	"math"
	"reflect"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

var testCables = []CableType{
	{Capacity: 1, Cost: 1},
	{Capacity: 10, Cost: 4},
	{Capacity: 100, Cost: 12},
}

func TestBestCable(t *testing.T) {
	cases := []struct {
		flow      float64
		wantIdx   int
		wantCount int
	}{
		{0.5, 0, 1},   // one thin cable: cost 1 beats 4 and 12
		{5, 1, 1},     // one medium: 4 beats 5 thin (5) and 12
		{10, 1, 1},    // exactly one medium
		{40, 2, 1},    // one fat: 12 beats 4 mediums (16)
		{1000, 2, 10}, // ten fat cables
	}
	for _, c := range cases {
		idx, count, _ := bestCable(testCables, c.flow)
		if idx != c.wantIdx || count != c.wantCount {
			t.Fatalf("flow %v: got cable %d ×%d, want %d ×%d", c.flow, idx, count, c.wantIdx, c.wantCount)
		}
	}
}

func TestSolveValidatesInput(t *testing.T) {
	g := graph.PathGraph(4, 1)
	rng := par.NewRNG(1)
	if _, err := Solve(g, nil, testCables, Options{}); err == nil {
		t.Fatal("missing RNG accepted")
	}
	if _, err := Solve(g, nil, nil, Options{RNG: rng}); err == nil {
		t.Fatal("no cables accepted")
	}
	bad := []Demand{{S: 0, T: 9, Amount: 1}}
	if _, err := Solve(g, bad, testCables, Options{RNG: rng}); err == nil {
		t.Fatal("out-of-range demand accepted")
	}
	if _, err := Solve(g, []Demand{{S: 0, T: 1, Amount: -1}}, testCables, Options{RNG: rng}); err == nil {
		t.Fatal("negative demand accepted")
	}
	if _, err := Solve(g, nil, []CableType{{Capacity: 0, Cost: 1}}, Options{RNG: rng}); err == nil {
		t.Fatal("zero-capacity cable accepted")
	}
}

func TestSolveFeasibleAndPriced(t *testing.T) {
	rng := par.NewRNG(2)
	g := graph.RandomConnected(40, 100, 5, rng)
	demands := []Demand{
		{S: 0, T: 39, Amount: 3},
		{S: 5, T: 20, Amount: 12},
		{S: 1, T: 39, Amount: 7},
		{S: 0, T: 20, Amount: 0.5},
	}
	sol, err := Solve(g, demands, testCables, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, testCables, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Cost <= 0 {
		t.Fatal("zero-cost solution for non-trivial demands")
	}
	if sol.Cost < LowerBound(g, demands, testCables)-1e-9 {
		t.Fatalf("cost %v below the volume lower bound — accounting broken", sol.Cost)
	}
}

func TestSolveInjectedEnsemble(t *testing.T) {
	rng := par.NewRNG(3)
	g := graph.RandomConnected(40, 90, 5, rng)
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := emb.SampleEnsemble(3)
	if err != nil {
		t.Fatal(err)
	}
	demands := []Demand{{S: 2, T: 35, Amount: 5}, {S: 7, T: 11, Amount: 50}}
	sol, err := Solve(g, demands, testCables, Options{Ensemble: ens})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, testCables, sol); err != nil {
		t.Fatal(err)
	}
	// Best-of-ensemble cannot be worse than any single tree of the ensemble.
	for i := 0; i < 3; i++ {
		one, err := Solve(g, demands, testCables, Options{Ensemble: ens, FirstTree: i, Trees: 1})
		if err != nil {
			t.Fatal(err)
		}
		if one.Cost < sol.Cost-1e-9 {
			t.Fatalf("single tree %d beats the ensemble: %v < %v", i, one.Cost, sol.Cost)
		}
	}
}

func TestSolveApproximationRatio(t *testing.T) {
	// Experiment E12 in miniature: cost within an O(log n) factor of the
	// volume lower bound on a structured workload (many demands sharing a
	// corridor, where buying fat cables pays off).
	rng := par.NewRNG(4)
	g := graph.GridGraph(6, 6, 2, rng)
	var demands []Demand
	for i := 0; i < 12; i++ {
		demands = append(demands, Demand{
			S:      graph.Node(rng.Intn(6)),      // left-ish
			T:      graph.Node(30 + rng.Intn(6)), // right-ish
			Amount: float64(1 + rng.Intn(20)),
		})
	}
	sol, err := Solve(g, demands, testCables, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	lb := LowerBound(g, demands, testCables)
	ratio := sol.Cost / lb
	// The lower bound itself is loose (it prices everything at the bulk
	// rate); O(log n)·constant here means single digits to low tens.
	if ratio > 60 {
		t.Fatalf("cost/LB ratio %.1f implausibly large", ratio)
	}
}

func TestDirectBaselineFeasible(t *testing.T) {
	rng := par.NewRNG(5)
	g := graph.RandomConnected(30, 70, 4, rng)
	demands := []Demand{{S: 0, T: 29, Amount: 15}, {S: 3, T: 29, Amount: 2}}
	sol := DirectShortestPath(g, demands, testCables)
	if err := Validate(g, testCables, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Cost < LowerBound(g, demands, testCables)-1e-9 {
		t.Fatal("direct baseline beat the lower bound")
	}
}

func TestAggregationBeatsDirectOnSharedCorridor(t *testing.T) {
	// Many unit demands crossing one long corridor: the tree solution
	// aggregates them onto shared fat cables, while the direct baseline
	// (which routes each demand on its own shortest path and then prices
	// each edge) pays thin-cable rates when paths diverge. On a pure path
	// graph both aggregate equally, so use many sources funnelling into a
	// single sink over a path.
	g := graph.PathGraph(30, 1)
	var demands []Demand
	for i := 0; i < 10; i++ {
		demands = append(demands, Demand{S: graph.Node(i), T: 29, Amount: 9})
	}
	rng := par.NewRNG(6)
	sol, err := Solve(g, demands, testCables, Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	direct := DirectShortestPath(g, demands, testCables)
	// Both must be feasible; the tree solution may pay the O(log n) tree
	// detour but must stay within a small factor of direct on this
	// workload.
	if err := Validate(g, testCables, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Cost > 20*direct.Cost {
		t.Fatalf("tree solution %.1f vastly worse than direct %.1f", sol.Cost, direct.Cost)
	}
}

func TestLowerBoundMonotone(t *testing.T) {
	g := graph.PathGraph(10, 2)
	d1 := []Demand{{S: 0, T: 9, Amount: 1}}
	d2 := []Demand{{S: 0, T: 9, Amount: 1}, {S: 1, T: 8, Amount: 4}}
	if LowerBound(g, d1, testCables) >= LowerBound(g, d2, testCables) {
		t.Fatal("lower bound not monotone in demands")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	g := graph.PathGraph(3, 1)
	sol := &Solution{
		Purchases: []Purchase{{U: 0, V: 2, Cable: 0, Count: 1}}, // non-edge
	}
	if err := Validate(g, testCables, sol); err == nil {
		t.Fatal("purchase on non-edge accepted")
	}
	sol = &Solution{
		Purchases: []Purchase{{U: 0, V: 1, Cable: 0, Count: 1}},
		Flow:      map[[2]graph.Node]float64{{0, 1}: 5},
	}
	if err := Validate(g, testCables, sol); err == nil {
		t.Fatal("under-capacitated edge accepted")
	}
}

func TestSolveNoDemands(t *testing.T) {
	g := graph.PathGraph(4, 1)
	sol, err := Solve(g, nil, testCables, Options{RNG: par.NewRNG(7)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 || len(sol.Purchases) != 0 {
		t.Fatalf("empty demand set produced cost %v", sol.Cost)
	}
}

// TestSolveDeterministic pins that identical calls return identical
// solutions: the same purchases in the same order and a bitwise-equal Cost.
// The purchases are gathered from maps, whose iteration order changes from
// call to call, so this fails unless Solve fixes the order.
func TestSolveDeterministic(t *testing.T) {
	rng := par.NewRNG(4)
	g := graph.RandomConnected(60, 150, 5, rng)
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := emb.SampleEnsemble(2)
	if err != nil {
		t.Fatal(err)
	}
	var demands []Demand
	for i := 0; i < 12; i++ {
		demands = append(demands, Demand{S: graph.Node(i), T: graph.Node(59 - 2*i), Amount: 0.7 + float64(i)})
	}
	first, err := Solve(g, demands, testCables, Options{Ensemble: ens})
	if err != nil {
		t.Fatal(err)
	}
	direct := DirectShortestPath(g, demands, testCables)
	for i := 0; i < 8; i++ {
		again, err := Solve(g, demands, testCables, Options{Ensemble: ens})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) || math.Float64bits(first.Cost) != math.Float64bits(again.Cost) {
			t.Fatalf("call %d: Solve differs from the first call (cost %v vs %v)", i, again.Cost, first.Cost)
		}
		if d := DirectShortestPath(g, demands, testCables); !reflect.DeepEqual(direct, d) || math.Float64bits(direct.Cost) != math.Float64bits(d.Cost) {
			t.Fatalf("call %d: DirectShortestPath differs from the first call", i)
		}
	}
}

// TestSolveRejectsInvalidTree: a structurally invalid injected tree is an
// error, not a walk that loops or runs off the tree.
func TestSolveRejectsInvalidTree(t *testing.T) {
	rng := par.NewRNG(5)
	g := graph.RandomConnected(30, 70, 5, rng)
	emb, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := emb.SampleEnsemble(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := *ens.Trees[0]
	bad.Parent = append([]int32(nil), bad.Parent...)
	leaf := bad.Leaf[4]
	bad.Parent[bad.Parent[leaf]] = leaf // a parent cycle above node 4's leaf
	demands := []Demand{{S: 4, T: 20, Amount: 1}}
	if _, err := Solve(g, demands, testCables, Options{Ensemble: &frt.Ensemble{Trees: []*frt.Tree{&bad}}}); err == nil {
		t.Fatal("Solve accepted a structurally invalid tree")
	}
	for name, tr := range layoutBreakers(ens.Trees[0]) {
		if _, err := Solve(g, demands, testCables, Options{Ensemble: &frt.Ensemble{Trees: []*frt.Tree{tr}}}); err == nil {
			t.Fatalf("Solve accepted a %s tree", name)
		}
	}
}

// layoutBreakers returns sound copies of tr that break frt.Tree's layout
// contract: one with node 3's leaf edge reweighted, and one with the
// non-root node ids reversed, so that Level increases with the id.
func layoutBreakers(tr *frt.Tree) map[string]*frt.Tree {
	skewed := *tr
	skewed.EdgeWeight = append([]float64(nil), tr.EdgeWeight...)
	skewed.EdgeWeight[tr.Leaf[3]] /= 2
	nn := tr.NumNodes()
	id := func(u int32) int32 {
		if u <= 0 {
			return u
		}
		return int32(nn) - u
	}
	permuted := frt.Tree{
		Parent:     make([]int32, nn),
		EdgeWeight: make([]float64, nn),
		Center:     make([]graph.Node, nn),
		Level:      make([]int32, nn),
		Leaf:       make([]int32, len(tr.Leaf)),
		Beta:       tr.Beta,
	}
	for u := int32(0); u < int32(nn); u++ {
		permuted.Parent[id(u)] = id(tr.Parent[u])
		permuted.EdgeWeight[id(u)], permuted.Center[id(u)], permuted.Level[id(u)] = tr.EdgeWeight[u], tr.Center[u], tr.Level[u]
	}
	for v, leaf := range tr.Leaf {
		permuted.Leaf[v] = id(leaf)
	}
	return map[string]*frt.Tree{"non-uniform": &skewed, "permuted": &permuted}
}
