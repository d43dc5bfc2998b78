package semiring

import (
	"math/rand"
	"testing"
)

func TestMinPlusAddIsCommutativeMin(t *testing.T) {
	sr := MinPlus{}
	if got := sr.Add(3, 5); got != 3 {
		t.Fatalf("Add(3,5) = %v, want 3", got)
	}
	if got := sr.Add(Inf, 5); got != 5 {
		t.Fatalf("Add(Inf,5) = %v, want 5", got)
	}
	if got := sr.Mul(3, 5); got != 8 {
		t.Fatalf("Mul(3,5) = %v, want 8", got)
	}
	if !IsInf(sr.Mul(3, Inf)) {
		t.Fatal("Mul(3,Inf) should be Inf")
	}
}

func TestMaxMinOps(t *testing.T) {
	sr := MaxMin{}
	if got := sr.Add(3, 5); got != 5 {
		t.Fatalf("Add(3,5) = %v, want 5", got)
	}
	if got := sr.Mul(3, 5); got != 3 {
		t.Fatalf("Mul(3,5) = %v, want 3", got)
	}
	if got := sr.Mul(Inf, 5); got != 5 {
		t.Fatalf("Mul(Inf,5) = %v, want 5 (One is neutral)", got)
	}
}

// dm is the test shorthand for building DistMap values from entry literals
// (FromEntries does not validate ordering, so Normalize tests may pass
// unsorted entries through it deliberately).
func dm(entries ...Entry) DistMap { return FromEntries(entries...) }

func randomDistMap(rng *rand.Rand, maxNodes int) DistMap {
	n := rng.Intn(maxNodes + 1)
	m := NewDistMap(n)
	node := NodeID(0)
	for i := 0; i < n; i++ {
		node += NodeID(1 + rng.Intn(4))
		m = m.Append(node, float64(rng.Intn(100)))
	}
	return m
}

func TestDistMapAddKeepsMinimum(t *testing.T) {
	mod := DistMapModule{}
	x := dm(Entry{1, 5}, Entry{3, 2})
	y := dm(Entry{1, 3}, Entry{2, 7})
	got := mod.Add(x, y)
	want := dm(Entry{1, 3}, Entry{2, 7}, Entry{3, 2})
	if !mod.Equal(got, want) {
		t.Fatalf("Add = %v, want %v", got, want)
	}
}

func TestDistMapSMul(t *testing.T) {
	mod := DistMapModule{}
	x := dm(Entry{1, 5}, Entry{3, 2})
	got := mod.SMul(10, x)
	want := dm(Entry{1, 15}, Entry{3, 12})
	if !mod.Equal(got, want) {
		t.Fatalf("SMul = %v, want %v", got, want)
	}
	if mod.SMul(Inf, x).Len() != 0 {
		t.Fatal("SMul(Inf, x) should be ⊥")
	}
	if got := mod.SMul(0, x); !mod.Equal(got, x) {
		t.Fatal("SMul(0, x) should be x")
	}
}

func TestDistMapSMulDoesNotAliasInput(t *testing.T) {
	mod := DistMapModule{}
	x := dm(Entry{1, 5})
	y := mod.SMul(3, x)
	// The result shares x's ID array but carries fresh distances: writing
	// them (legal here — the ds array is exclusively owned) must not reach x.
	y.ds[0] = 999
	if x.Dist(0) != 5 {
		t.Fatal("SMul result aliases its input's distances")
	}
}

func TestDistMapGet(t *testing.T) {
	x := dm(Entry{2, 5}, Entry{7, 1}, Entry{9, 4})
	if got := x.Get(7); got != 1 {
		t.Fatalf("Get(7) = %v, want 1", got)
	}
	if !IsInf(x.Get(3)) {
		t.Fatal("Get(absent) should be Inf")
	}
	if !IsInf((DistMap{}).Get(0)) {
		t.Fatal("Get on the zero map should be Inf")
	}
}

func TestDistMapNormalize(t *testing.T) {
	x := dm(Entry{5, 2}, Entry{1, 9}, Entry{5, 7}, Entry{3, Inf}, Entry{1, 4})
	got := Normalize(x)
	want := dm(Entry{1, 4}, Entry{5, 2})
	if !(DistMapModule{}).Equal(got, want) {
		t.Fatalf("Normalize = %v, want %v", got, want)
	}
	if !got.IsSorted() {
		t.Fatal("Normalize output not sorted")
	}
}

func TestTopKFilterKeepsKSmallest(t *testing.T) {
	r := TopKFilter(2, Inf, nil)
	x := dm(Entry{1, 9}, Entry{2, 3}, Entry{3, 5}, Entry{4, 3})
	got := r(x)
	// Two smallest are (2,3) and (4,3); ties broken by node ID keep node 2
	// then node 4.
	want := dm(Entry{2, 3}, Entry{4, 3})
	if !(DistMapModule{}).Equal(got, want) {
		t.Fatalf("TopKFilter = %v, want %v", got, want)
	}
}

func TestTopKFilterMaxDistAndSources(t *testing.T) {
	isSource := func(v NodeID) bool { return v%2 == 0 }
	r := TopKFilter(10, 4, isSource)
	x := dm(Entry{1, 1}, Entry{2, 3}, Entry{3, 2}, Entry{4, 9})
	got := r(x)
	want := dm(Entry{2, 3}) // node 4 exceeds maxDist, odd nodes not sources
	if !(DistMapModule{}).Equal(got, want) {
		t.Fatalf("filter = %v, want %v", got, want)
	}
}

func TestIdentityFilter(t *testing.T) {
	r := Identity[DistMap]()
	x := dm(Entry{1, 2})
	if !(DistMapModule{}).Equal(r(x), x) {
		t.Fatal("identity filter changed its input")
	}
}

func TestBoolSetUnion(t *testing.T) {
	mod := BoolSet{}
	got := mod.Add([]NodeID{1, 3, 5}, []NodeID{2, 3, 6})
	want := []NodeID{1, 2, 3, 5, 6}
	if !mod.Equal(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
}

func TestWidthMapOps(t *testing.T) {
	mod := WidthMapModule{}
	x := WidthMap{{1, 5}, {3, 8}}
	y := WidthMap{{1, 7}, {2, 2}}
	got := mod.Add(x, y)
	want := WidthMap{{1, 7}, {2, 2}, {3, 8}}
	if !mod.Equal(got, want) {
		t.Fatalf("Add = %v, want %v", got, want)
	}
	capped := mod.SMul(4, x)
	want = WidthMap{{1, 4}, {3, 4}}
	if !mod.Equal(capped, want) {
		t.Fatalf("SMul = %v, want %v", capped, want)
	}
	if mod.SMul(0, x) != nil {
		t.Fatal("SMul(0, x) should be ⊥")
	}
	if got := x.Get(3); got != 8 {
		t.Fatalf("Get(3) = %v, want 8", got)
	}
	if got := x.Get(2); got != 0 {
		t.Fatalf("Get(absent) = %v, want 0", got)
	}
}
