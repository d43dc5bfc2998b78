package buyatbulk

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"parmbf/internal/apps/routing"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// referenceSolve is the per-tree expansion Solve replaced, kept as the
// differential reference: every visited tree indexes itself and expands each
// loaded hop with dijkstraWalk — no mbf routing table involved, so a wrong
// next-hop rule in mbf cannot hide in both sides.
func referenceSolve(g *graph.Graph, demands []Demand, cables []CableType, ens *frt.Ensemble, opts Options) (*Solution, error) {
	visit, err := opts.Visit(ens)
	if err != nil {
		return nil, err
	}
	var best *Solution
	for _, tree := range visit {
		sol, err := referenceSolveOnTree(g, tree, demands, cables)
		if err != nil {
			return nil, err
		}
		if best == nil || sol.Cost < best.Cost {
			best = sol
		}
	}
	return best, nil
}

func referenceSolveOnTree(g *graph.Graph, tree *frt.Tree, demands []Demand, cables []CableType) (*Solution, error) {
	tidx, err := frt.NewTreeIndex(tree)
	if err != nil {
		return nil, err
	}
	nt := tree.NumNodes()
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
	type hop struct {
		from, to graph.Node
		flow     float64
	}
	var hops []hop
	for child := int32(0); child < int32(nt); child++ {
		f := flow[child]
		p := tree.Parent[child]
		if f <= 0 || p == -1 || tree.Center[child] == tree.Center[p] {
			continue
		}
		hops = append(hops, hop{from: tree.Center[child], to: tree.Center[p], flow: f})
	}
	counts := map[[2]graph.Node]map[int]int{}
	flowBy := map[[2]graph.Node]float64{}
	dist := map[graph.Node][]float64{}
	for _, h := range hops {
		cable, count, _ := bestCable(cables, h.flow)
		path := dijkstraWalk(g, dist, h.from, h.to)
		if path == nil {
			return nil, fmt.Errorf("centers %d, %d disconnected", h.from, h.to)
		}
		for i := 1; i < len(path); i++ {
			k := orderedKey(path[i-1], path[i])
			if counts[k] == nil {
				counts[k] = map[int]int{}
			}
			counts[k][cable] += count
			flowBy[k] += h.flow
		}
	}
	sol := &Solution{Flow: flowBy}
	for k, byCable := range counts {
		for cable, count := range byCable {
			sol.Purchases = append(sol.Purchases, Purchase{U: k[0], V: k[1], Cable: cable, Count: count})
		}
	}
	sol.price(g, cables)
	return sol, nil
}

// dijkstraWalk is the reference expansion of one hop from → to, derived
// independently of the mbf routing tables under test: exact distances to
// `to` from one graph.Dijkstra per target (memoised in dist), and at every
// node the smallest neighbour w with d(w, to) + ω(v, w) == d(v, to), bit for
// bit. Returns nil when from cannot reach to.
func dijkstraWalk(g *graph.Graph, dist map[graph.Node][]float64, from, to graph.Node) []graph.Node {
	d, ok := dist[to]
	if !ok {
		d = graph.Dijkstra(g, to).Dist
		dist[to] = d
	}
	path := []graph.Node{from}
	for v := from; v != to; {
		next := graph.Node(-1)
		for _, a := range g.Neighbors(v) { // sorted by target: the first match is the smallest
			if d[a.To]+a.Weight == d[v] {
				next = a.To
				break
			}
		}
		if next < 0 || len(path) > g.N() {
			return nil
		}
		v = next
		path = append(path, v)
	}
	return path
}

// sameSolution reports the first difference between two solutions: cost
// bits, the (sorted) purchase list, or any per-edge flow bit.
func sameSolution(got, want *Solution) error {
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Errorf("cost %v, want %v", got.Cost, want.Cost)
	}
	if !slices.Equal(got.Purchases, want.Purchases) {
		return fmt.Errorf("purchases differ: %d vs %d", len(got.Purchases), len(want.Purchases))
	}
	if len(got.Flow) != len(want.Flow) {
		return fmt.Errorf("flow on %d edges, want %d", len(got.Flow), len(want.Flow))
	}
	for k, f := range want.Flow {
		if g, ok := got.Flow[k]; !ok || math.Float64bits(g) != math.Float64bits(f) {
			return fmt.Errorf("edge %v: flow %v, want %v", k, g, f)
		}
	}
	return nil
}

// diffGraphs are the differential suite's inputs: a sparse random graph, a
// grid (many equal-length shortest paths, so next-hop tie-breaking matters)
// and a power-law Chung-Lu graph with hub-heavy adjacency.
func diffGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"random":  graph.RandomConnected(96, 300, 8, par.NewRNG(101)),
		"grid":    graph.GridGraph(9, 9, 1, par.NewRNG(102)),
		"chunglu": graph.ChungLu(120, 4, 2.5, 6, par.NewRNG(103)),
	}
}

// TestExpansionMatchesPerTreeReference pins that the one-shot Solve (one
// fixpoint towards the union of every tree's loaded parent centers) and
// SolveOnTables (routing.Build's tables towards every internal center) both
// equal the per-tree fixpoint loop bitwise — a next-hop entry does not
// depend on which other targets share its table.
func TestExpansionMatchesPerTreeReference(t *testing.T) {
	cables := []CableType{{Capacity: 1, Cost: 1}, {Capacity: 4, Cost: 2.5}, {Capacity: 16, Cost: 6}}
	for name, g := range diffGraphs() {
		for _, k := range []int{1, 4} {
			emb, err := frt.NewEmbedder(g, frt.Options{RNG: par.NewRNG(uint64(7 * k))})
			if err != nil {
				t.Fatal(err)
			}
			ens, err := emb.SampleEnsemble(k)
			if err != nil {
				t.Fatal(err)
			}
			rng := par.NewRNG(uint64(len(name) + k))
			demands := make([]Demand, 40)
			for i := range demands {
				demands[i] = Demand{S: graph.Node(rng.Intn(g.N())), T: graph.Node(rng.Intn(g.N())), Amount: 0.5 + rng.Float64()*6}
			}
			tables, err := routing.Build(g, routing.Options{Ensemble: ens})
			if err != nil {
				t.Fatal(err)
			}
			spans := []Options{{}}
			if k > 1 {
				spans = append(spans, Options{FirstTree: 1, Trees: 2})
			}
			for _, span := range spans {
				label := fmt.Sprintf("%s K=%d trees [%d,+%d)", name, k, span.FirstTree, span.Trees)
				want, err := referenceSolve(g, demands, cables, ens, span)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Purchases) == 0 {
					t.Fatalf("%s: reference bought nothing; the comparison would be vacuous", label)
				}
				opts := span
				opts.Ensemble = ens
				got, err := Solve(g, demands, cables, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSolution(got, want); err != nil {
					t.Fatalf("%s: Solve: %v", label, err)
				}
				served, err := SolveOnTables(tables, demands, cables, span)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSolution(served, want); err != nil {
					t.Fatalf("%s: SolveOnTables: %v", label, err)
				}
			}
		}
	}
}

// TestSolveOnTablesRejectsBadSpan: the served path keeps Visit's range
// semantics — an out-of-range FirstTree is an error, not an empty solve.
func TestSolveOnTablesRejectsBadSpan(t *testing.T) {
	g := graph.RandomConnected(30, 70, 4, par.NewRNG(8))
	tables, err := routing.Build(g, routing.Options{RNG: par.NewRNG(9), Trees: 2})
	if err != nil {
		t.Fatal(err)
	}
	demands := []Demand{{S: 0, T: 29, Amount: 1}}
	if _, err := SolveOnTables(tables, demands, testCables, Options{FirstTree: 2}); err == nil {
		t.Fatal("FirstTree beyond the tables' trees accepted")
	}
	if _, err := SolveOnTables(tables, []Demand{{S: 0, T: 30, Amount: 1}}, testCables, Options{}); err == nil {
		t.Fatal("out-of-range demand accepted")
	}
}

// TestSolveRejectsCountOverflow: a capacity so small that ⌈flow/capacity⌉
// does not fit in an int used to wrap the count negative, clamp it to one
// cable, and return a solution failing its own Validate. It must be an
// error instead.
func TestSolveRejectsCountOverflow(t *testing.T) {
	g := graph.PathGraph(6, 1)
	demands := []Demand{{S: 0, T: 5, Amount: 1}}
	for _, cables := range [][]CableType{
		{{Capacity: 1e-300, Cost: 1}},
		{{Capacity: 1, Cost: 1}, {Capacity: 1e-300, Cost: 1e-300}},
	} {
		sol, err := Solve(g, demands, cables, Options{RNG: par.NewRNG(10)})
		if err == nil {
			t.Fatalf("cables %+v: accepted (Validate: %v)", cables, Validate(g, cables, sol))
		}
	}
	if idx, _, _ := bestCable([]CableType{{Capacity: 1e-300, Cost: 1}}, 1); idx != -1 {
		t.Fatalf("bestCable chose cable %d for an overflowing count", idx)
	}
}

// TestSolveRejectsNonFiniteAndNegativeInput: non-finite cable parameters
// and demand amounts, and negative demand endpoints (which used to panic
// with a slice-bounds error deep in the tree index), are input errors.
func TestSolveRejectsNonFiniteAndNegativeInput(t *testing.T) {
	g := graph.PathGraph(6, 1)
	rng := par.NewRNG(11)
	inf, nan := math.Inf(1), math.NaN()
	for _, cables := range [][]CableType{
		{{Capacity: inf, Cost: 1}},
		{{Capacity: 1, Cost: inf}},
		{{Capacity: nan, Cost: 1}},
		{{Capacity: 1, Cost: nan}},
	} {
		if _, err := Solve(g, []Demand{{S: 0, T: 5, Amount: 1}}, cables, Options{RNG: rng}); err == nil {
			t.Fatalf("cables %+v accepted", cables)
		}
	}
	for _, d := range []Demand{
		{S: -5, T: 2, Amount: 1},
		{S: 2, T: -1, Amount: 1},
		{S: 0, T: 5, Amount: inf},
		{S: 0, T: 5, Amount: nan},
		{S: 0, T: 5, Amount: 0},
	} {
		if _, err := Solve(g, []Demand{d}, testCables, Options{RNG: rng}); err == nil {
			t.Fatalf("demand %+v accepted", d)
		}
	}
	// Finite inputs whose priced total overflows to +Inf: the cost cannot be
	// reported (or encoded as JSON), so it is an input error too.
	huge := []CableType{{Capacity: 1, Cost: math.MaxFloat64}}
	if sol, err := Solve(g, []Demand{{S: 0, T: 5, Amount: 1}}, huge, Options{RNG: rng}); err == nil {
		t.Fatalf("overflowing total cost %v accepted", sol.Cost)
	}
}
