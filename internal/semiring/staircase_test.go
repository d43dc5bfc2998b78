package semiring

import (
	"testing"

	"parmbf/internal/par"
)

// bruteStaircase keeps the entries no earlier entry is at most as far as.
func bruteStaircase(x DistMap) DistMap {
	out := DistMap{}
	for i := 0; i < x.Len(); i++ {
		kept := true
		for j := 0; j < i; j++ {
			if x.Dist(j) <= x.Dist(i) {
				kept = false
				break
			}
		}
		if kept {
			out = out.Append(x.Node(i), x.Dist(i))
		}
	}
	return out
}

// TestStaircase pins both variants against the quadratic definition on
// random maps with many tied distances, and checks the ownership contract:
// the pure variant never writes its input and returns it unchanged when
// nothing is dropped; the in-place variant allocates nothing.
func TestStaircase(t *testing.T) {
	rng := par.NewRNG(61)
	var mod DistMapModule
	for trial := 0; trial < 500; trial++ {
		x := DistMap{}
		for k := NodeID(0); k < 30; k++ {
			if rng.Float64() < 0.5 {
				x = x.Append(k, float64(rng.Intn(5)))
			}
		}
		before := x.Clone()
		want := bruteStaircase(x)
		got := Staircase(x)
		if !mod.Equal(got, want) {
			t.Fatalf("Staircase(%v) = %v, want %v", x, got, want)
		}
		if !mod.Equal(x, before) {
			t.Fatalf("Staircase wrote its input: %v, was %v", x, before)
		}
		if got.Len() == x.Len() && x.Len() > 0 && &got.ids[0] != &x.ids[0] {
			t.Fatal("Staircase copied a map it kept whole")
		}
		if inPlace := StaircaseInPlace(x.Clone()); !mod.Equal(inPlace, want) {
			t.Fatalf("StaircaseInPlace(%v) = %v, want %v", x, inPlace, want)
		}
	}
	x := FromEntries(Entry{0, 5}, Entry{1, 7}, Entry{2, 3}, Entry{3, 3}, Entry{4, 0})
	if allocs := testing.AllocsPerRun(10, func() { StaircaseInPlace(x.Clone()) }); allocs > 1 {
		t.Errorf("StaircaseInPlace allocates: %.0f allocs beyond the clone", allocs-1)
	}
	if got := Staircase(DistMap{}); got.Len() != 0 {
		t.Fatalf("Staircase(⊥) = %v", got)
	}
}

// TestRelabel checks that Relabel maps every key, sorts by the new keys,
// leaves its input alone, and round-trips through the inverse map.
func TestRelabel(t *testing.T) {
	rng := par.NewRNG(62)
	const n = 50
	var mod DistMapModule
	for trial := 0; trial < 100; trial++ {
		perm := rng.Perm(n)
		key := make([]NodeID, n)
		inv := make([]NodeID, n)
		for v, k := range perm {
			key[v], inv[k] = NodeID(k), NodeID(v)
		}
		x := DistMap{}
		for v := NodeID(0); v < n; v++ {
			if rng.Float64() < 0.4 {
				x = x.Append(v, float64(rng.Intn(100)))
			}
		}
		before := x.Clone()
		y := x.Relabel(key)
		if !y.IsSorted() || y.Len() != x.Len() {
			t.Fatalf("Relabel(%v) = %v: not a sorted map of the same size", x, y)
		}
		for i := 0; i < x.Len(); i++ {
			if y.Get(key[x.Node(i)]) != x.Dist(i) {
				t.Fatalf("entry %d of %v lost under relabel: %v", x.Node(i), x, y)
			}
		}
		if !mod.Equal(x, before) || !mod.Equal(y.Relabel(inv), x) {
			t.Fatalf("Relabel round trip: %v → %v → %v", before, y, y.Relabel(inv))
		}
	}
}

// TestSingletonStatesKeyed checks the keyed initial vector: singleton v is
// {key[v]: 0}, and the bulk carve is kept.
func TestSingletonStatesKeyed(t *testing.T) {
	const n = 1024
	key := make([]NodeID, n)
	for v := range key {
		key[v] = NodeID(n - 1 - v)
	}
	states := SingletonStatesKeyed(key)
	for v := range states {
		if !(DistMapModule{}).Equal(states[v], SingletonDist(key[v], 0)) {
			t.Fatalf("states[%d] = %v, want {%d: 0}", v, states[v], key[v])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { SingletonStatesKeyed(key) }); allocs > 4 {
		t.Errorf("SingletonStatesKeyed = %.0f allocs, want ≤ 4", allocs)
	}
}
