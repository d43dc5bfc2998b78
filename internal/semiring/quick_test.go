package semiring

// Property-based tests (testing/quick) for the core algebraic structures:
// randomly generated elements must satisfy the semiring/semimodule laws and
// the congruence properties the MBF-like framework rests on. These
// complement the enumerated-sample law checks in semiring_test.go with
// adversarial random inputs.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genDist draws a min-plus scalar, occasionally ∞.
func genDist(r *rand.Rand) float64 {
	if r.Intn(8) == 0 {
		return Inf
	}
	return float64(r.Intn(1 << 16))
}

// genDistMap draws a valid sparse distance map.
func genDistMap(r *rand.Rand) DistMap {
	n := r.Intn(10)
	m := NewDistMap(n)
	node := NodeID(0)
	for i := 0; i < n; i++ {
		node += NodeID(1 + r.Intn(5))
		m = m.Append(node, float64(r.Intn(1000)))
	}
	return m
}

// distMapGen adapts genDistMap to testing/quick's Generator protocol via a
// wrapper type.
type quickDistMap struct{ M DistMap }

// Generate implements quick.Generator.
func (quickDistMap) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickDistMap{M: genDistMap(r)})
}

type quickScalar struct{ S float64 }

// Generate implements quick.Generator.
func (quickScalar) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickScalar{S: genDist(r)})
}

func TestQuickDistMapAddCommutative(t *testing.T) {
	mod := DistMapModule{}
	f := func(a, b quickDistMap) bool {
		return mod.Equal(mod.Add(a.M, b.M), mod.Add(b.M, a.M))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistMapAddAssociative(t *testing.T) {
	mod := DistMapModule{}
	f := func(a, b, c quickDistMap) bool {
		return mod.Equal(
			mod.Add(mod.Add(a.M, b.M), c.M),
			mod.Add(a.M, mod.Add(b.M, c.M)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistMapAddIdempotent(t *testing.T) {
	// min is idempotent: x ⊕ x = x (a semilattice property specific to the
	// tropical algebra that the k-way merge exploits).
	mod := DistMapModule{}
	f := func(a quickDistMap) bool {
		return mod.Equal(mod.Add(a.M, a.M), a.M)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistMapSMulDistributes(t *testing.T) {
	mod := DistMapModule{}
	f := func(s quickScalar, a, b quickDistMap) bool {
		return mod.Equal(
			mod.SMul(s.S, mod.Add(a.M, b.M)),
			mod.Add(mod.SMul(s.S, a.M), mod.SMul(s.S, b.M)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistMapSMulComposes(t *testing.T) {
	mod := DistMapModule{}
	sr := MinPlus{}
	f := func(s, u quickScalar, a quickDistMap) bool {
		return mod.Equal(
			mod.SMul(sr.Mul(s.S, u.S), a.M),
			mod.SMul(s.S, mod.SMul(u.S, a.M)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistMapInvariantPreserved(t *testing.T) {
	mod := DistMapModule{}
	f := func(s quickScalar, a, b quickDistMap) bool {
		return mod.Add(a.M, b.M).IsSorted() && mod.SMul(s.S, a.M).IsSorted()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(a quickDistMap) bool {
		n1 := Normalize(a.M)
		return (DistMapModule{}).Equal(Normalize(n1), n1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTopKFilterProperties(t *testing.T) {
	mod := DistMapModule{}
	r := TopKFilter(4, Inf, nil)
	f := func(a, b quickDistMap) bool {
		// Projection: r² = r. Congruence form: r(x⊕y) = r(r(x)⊕r(y)).
		ra := r(a.M)
		if !mod.Equal(r(ra), ra) {
			return false
		}
		if ra.Len() > 4 {
			return false
		}
		return mod.Equal(r(mod.Add(a.M, b.M)), r(mod.Add(r(a.M), r(b.M))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBoolSetLattice(t *testing.T) {
	mod := BoolSet{}
	gen := func(r *rand.Rand) []NodeID {
		n := r.Intn(8)
		s := make([]NodeID, 0, n)
		node := NodeID(0)
		for i := 0; i < n; i++ {
			node += NodeID(1 + r.Intn(4))
			s = append(s, node)
		}
		return s
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a, b := gen(r), gen(r)
		if !mod.Equal(mod.Add(a, b), mod.Add(b, a)) {
			t.Fatalf("union not commutative: %v %v", a, b)
		}
		if !mod.Equal(mod.Add(a, a), a) {
			t.Fatalf("union not idempotent: %v", a)
		}
	}
}

func TestQuickWidthMapMaxMinLaws(t *testing.T) {
	mod := WidthMapModule{}
	gen := func(r *rand.Rand) WidthMap {
		n := r.Intn(8)
		m := make(WidthMap, 0, n)
		node := NodeID(0)
		for i := 0; i < n; i++ {
			node += NodeID(1 + r.Intn(4))
			m = append(m, WidthEntry{Node: node, Width: 1 + float64(r.Intn(100))})
		}
		return m
	}
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		a, b := gen(r), gen(r)
		s := float64(r.Intn(50))
		if !mod.Equal(mod.Add(a, b), mod.Add(b, a)) {
			t.Fatal("width Add not commutative")
		}
		if !mod.Equal(mod.SMul(s, mod.Add(a, b)), mod.Add(mod.SMul(s, a), mod.SMul(s, b))) {
			t.Fatal("width SMul does not distribute")
		}
	}
}

func TestQuickPathRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		nodes := make([]NodeID, 0, len(raw))
		for i, v := range raw {
			n := NodeID(v)
			if i > 0 && nodes[len(nodes)-1] == n {
				continue // MakePath rejects repeated adjacent nodes
			}
			nodes = append(nodes, n)
		}
		if len(nodes) == 0 {
			return true
		}
		p := MakePath(nodes...)
		got := p.Nodes()
		if len(got) != len(nodes) {
			return false
		}
		for i := range nodes {
			if got[i] != nodes[i] {
				return false
			}
		}
		return p.First() == nodes[0] && p.Last() == nodes[len(nodes)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
