package mbf

// These tests realise §2.4 of the paper executably: the MBF-like engine's
// iterations coincide with multiplication by powers of the adjacency matrix
// over the respective semiring (Definition 2.11 via Lemma 2.14's
// isomorphism between SLFs and matrices), and intermediate filtering
// commutes up to the final filter application (Corollary 2.17) for every
// algebra in the toolbox.

import (
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func slfGraph() *graph.Graph {
	rng := par.NewRNG(99)
	return graph.RandomConnected(9, 16, 5, rng)
}

// minPlusAdjacency builds the generic matrix of Equation (1.4).
func minPlusAdjacency(g *graph.Graph) *Mat[float64] {
	a := NewMat[float64](semiring.MinPlus{}, g.N())
	for _, e := range g.Edges() {
		a.Set(int(e.U), int(e.V), e.Weight)
		a.Set(int(e.V), int(e.U), e.Weight)
	}
	return a
}

func TestEngineEqualsMatrixPowerMinPlus(t *testing.T) {
	g := slfGraph()
	sr := semiring.MinPlus{}
	mod := semiring.DistMapModule{}
	a := minPlusAdjacency(g)

	x0 := InitialStatesDistMaps(g.N())
	runner := &Runner[float64, semiring.DistMap]{
		Graph:  g,
		Module: mod,
		Weight: MinPlusWeight,
	}
	for h := 0; h <= 4; h++ {
		viaEngine := runner.Run(x0, h)
		viaMatrix := x0
		for i := 0; i < h; i++ {
			viaMatrix = MatApply[float64, semiring.DistMap](sr, mod, a, viaMatrix)
		}
		for v := range viaEngine {
			if !mod.Equal(viaEngine[v], semiring.Normalize(viaMatrix[v])) {
				t.Fatalf("h=%d node %d: engine %v ≠ matrix %v", h, v, viaEngine[v], viaMatrix[v])
			}
		}
	}
}

func TestMatrixPowerEntriesAreHopDistances(t *testing.T) {
	// Lemma 3.1 in matrix form: (A^h)_{vw} = dist^h(v, w, G).
	g := slfGraph()
	sr := semiring.MinPlus{}
	a := minPlusAdjacency(g)
	for h := 0; h <= g.N(); h++ {
		p := MatPow[float64](sr, a, h)
		for v := 0; v < g.N(); v++ {
			bf := graph.BellmanFord(g, graph.Node(v), h)
			for w := 0; w < g.N(); w++ {
				if p.At(v, w) != bf[w] {
					t.Fatalf("h=%d (%d,%d): matrix %v vs BF %v", h, v, w, p.At(v, w), bf[w])
				}
			}
		}
	}
}

func TestMatrixPowerMaxMinIsWidestPath(t *testing.T) {
	// Lemma 3.12 in matrix form over S_{max,min}.
	g := slfGraph()
	sr := semiring.MaxMin{}
	a := NewMat[float64](sr, g.N())
	for _, e := range g.Edges() {
		a.Set(int(e.U), int(e.V), e.Weight)
		a.Set(int(e.V), int(e.U), e.Weight)
	}
	p := MatPow[float64](sr, a, g.N())
	for v := 0; v < g.N(); v++ {
		want := SSWP(g, graph.Node(v), g.N(), nil)
		for w := 0; w < g.N(); w++ {
			if p.At(v, w) != want[w] {
				t.Fatalf("(%d,%d): matrix %v vs engine %v", v, w, p.At(v, w), want[w])
			}
		}
	}
}

func TestMatrixPowerBooleanIsReachability(t *testing.T) {
	// Equation (3.30) in matrix form: (A^h x(0))_{vw} = 1 ⇔ P^h(v,w) ≠ ∅.
	g := graph.NewBuilder(5).Add(0, 1, 1).Add(1, 2, 1).Add(3, 4, 1).Freeze()
	sr := semiring.Boolean{}
	a := NewMat[bool](sr, g.N())
	for _, e := range g.Edges() {
		a.Set(int(e.U), int(e.V), true)
		a.Set(int(e.V), int(e.U), true)
	}
	for h := 0; h <= 3; h++ {
		p := MatPow[bool](sr, a, h)
		for v := 0; v < g.N(); v++ {
			reach := Connectivity(g, h, nil)[v]
			for w := 0; w < g.N(); w++ {
				inSet := false
				for _, u := range reach {
					if u == graph.Node(w) {
						inSet = true
					}
				}
				if p.At(v, w) != inSet {
					t.Fatalf("h=%d (%d,%d): matrix %v vs engine %v", h, v, w, p.At(v, w), inSet)
				}
			}
		}
	}
}

func TestMatrixPowerAllPathsEnumeratesPaths(t *testing.T) {
	// Lemma 3.20 in matrix form: (A^h x(0))_v contains exactly the ≤h-hop
	// paths starting at v, with their weights.
	g := graph.NewBuilder(4).Add(0, 1, 1).Add(1, 2, 2).Add(0, 2, 5).Add(2, 3, 1).Freeze()
	sr := semiring.AllPaths{}
	a := NewMat[semiring.PathSet](sr, g.N())
	for _, e := range g.Edges() {
		a.Set(int(e.U), int(e.V), semiring.PathSet{semiring.MakePath(e.U, e.V): e.Weight})
		a.Set(int(e.V), int(e.U), semiring.PathSet{semiring.MakePath(e.V, e.U): e.Weight})
	}
	mod := semiring.AllPathsSelf{}
	x := make([]semiring.PathSet, g.N())
	for v := range x {
		x[v] = semiring.PathSet{semiring.MakePath(graph.Node(v)): 0}
	}
	for h := 0; h < 3; h++ {
		x = MatApply[semiring.PathSet, semiring.PathSet](sr, mod, a, x)
	}
	// After 3 hops from node 0: the full path inventory out of node 0.
	want := semiring.PathSet{
		semiring.MakePath(0):          0,
		semiring.MakePath(0, 1):       1,
		semiring.MakePath(0, 2):       5,
		semiring.MakePath(0, 1, 2):    3,
		semiring.MakePath(0, 2, 1):    7,
		semiring.MakePath(0, 2, 3):    6,
		semiring.MakePath(0, 1, 2, 3): 4,
		semiring.MakePath(0, 2, 1, 3): semiring.Inf, // not a path: 1–3 missing
	}
	delete(want, semiring.MakePath(0, 2, 1, 3))
	if !sr.Equal(x[0], want) {
		t.Fatalf("paths from 0: %v, want %v", x[0], want)
	}
}

func TestMatSemiringIdentityAndAssociativity(t *testing.T) {
	g := slfGraph()
	sr := semiring.MinPlus{}
	a := minPlusAdjacency(g)
	id := NewMat[float64](sr, g.N())
	if !MatEqual[float64](sr, MatMul(sr, a, id), a) {
		t.Fatal("A·I ≠ A")
	}
	if !MatEqual[float64](sr, MatMul(sr, id, a), a) {
		t.Fatal("I·A ≠ A")
	}
	a2 := MatMul(sr, a, a)
	left := MatMul(sr, a2, a)
	right := MatMul(sr, a, a2)
	if !MatEqual[float64](sr, left, right) {
		t.Fatal("(A·A)·A ≠ A·(A·A)")
	}
	// Distributivity over a second matrix.
	b := NewMat[float64](sr, g.N())
	b.Set(0, 3, 2)
	lhs := MatMul(sr, a, MatAdd(sr, id, b))
	rhs := MatAdd(sr, MatMul(sr, a, id), MatMul(sr, a, b))
	if !MatEqual[float64](sr, lhs, rhs) {
		t.Fatal("A·(I⊕B) ≠ A·I ⊕ A·B")
	}
}

func TestMatSizeMismatchPanics(t *testing.T) {
	sr := semiring.MinPlus{}
	a := NewMat[float64](sr, 2)
	b := NewMat[float64](sr, 3)
	for _, fn := range []func(){
		func() { MatMul(sr, a, b) },
		func() { MatAdd(sr, a, b) },
		func() { MatApply[float64, float64](sr, semiring.MinPlusSelf{}, a, make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on size mismatch")
				}
			}()
			fn()
		}()
	}
}

// InitialStatesDistMaps mirrors frt.InitialStates without importing frt
// (which would create an import cycle in tests).
func InitialStatesDistMaps(n int) []semiring.DistMap {
	x0 := make([]semiring.DistMap, n)
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	return x0
}
