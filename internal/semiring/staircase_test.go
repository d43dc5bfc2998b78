package semiring

import (
	"math"
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

// TestStaircase pins Staircase against the quadratic definition on random
// maps with many tied distances, and checks the ownership contract: it never
// writes its input, returns it unchanged when nothing is dropped, and
// allocates one block otherwise.
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
	}
	x := FromEntries(Entry{0, 5}, Entry{1, 7}, Entry{2, 3}, Entry{3, 3}, Entry{4, 0})
	if allocs := testing.AllocsPerRun(10, func() { Staircase(x) }); allocs > 1 {
		t.Errorf("Staircase allocates %.0f blocks, want 1", allocs)
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
		// Dense odd trials give maps longer than relabelInsertionMax.
		p := 0.4
		if trial%2 == 1 {
			p = 0.9
		}
		x := DistMap{}
		for v := NodeID(0); v < n; v++ {
			if rng.Float64() < p {
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

// stairDists are the distances the fused-staircase property test draws
// from: small integers give many exact ties, and the values around 2^53
// round under the shifts below, so two different (distance, shift) pairs
// can land on the same float.
var stairDists = []float64{0, 1, 2, 3, 4, 5, 7, 1 << 53, 1<<53 + 2, 1<<53 + 4, 0.1, 0.2, 0.30000000000000004}

// stairShifts holds the term scalars: 0, exact integers, rounding shifts
// (0.1 + 0.2 ≠ 0.3, 2^53 + 1 = 2^53), and ∞, which kills its term.
var stairShifts = []float64{0, 0, 1, 2, 3, 0.1, 0.2, 1, Inf}

// randomStairList draws a key-sorted list over keys [0, universe): a
// staircase (strictly decreasing distances, the shape of a rank-keyed LE
// list) when stair is set, arbitrary distances otherwise. It is ⊥ with
// probability 1/8.
func randomStairList(rng *par.RNG, universe int, stair bool) DistMap {
	if rng.Intn(8) == 0 {
		return DistMap{}
	}
	x := DistMap{}
	last := Inf
	for k := 0; k < universe; k++ {
		if rng.Float64() >= 0.3 {
			continue
		}
		d := stairDists[rng.Intn(len(stairDists))]
		if stair {
			if !(d < last) {
				continue
			}
			last = d
		}
		x = x.Append(NodeID(k), d)
	}
	return x
}

// sameBits reports whether x and y hold the same keys and bitwise the same
// distances.
func sameBits(x, y DistMap) bool {
	if x.Len() != y.Len() {
		return false
	}
	for i := range x.ids {
		if x.ids[i] != y.ids[i] || math.Float64bits(x.ds[i]) != math.Float64bits(y.ds[i]) {
			return false
		}
	}
	return true
}

// TestStaircaseModuleMatchesStaircaseOfMerge pins the fused aggregation of
// StaircaseModule bitwise to Staircase of DistMapModule's merge, unfiltered
// and under Staircase, for every list count from 0 to 9 (the stack-gathered
// path ends at 8 live lists) and at 64 and 200 (the scratch path). Lists
// share keys, include ⊥ states, ∞ shifts, an empty self, and distances
// that round equal under their shifts; staircase and arbitrary lists both
// appear. It also checks that no input is written and that a warmed
// aggregation allocates at most the result.
func TestStaircaseModuleMatchesStaircaseOfMerge(t *testing.T) {
	rng := par.NewRNG(63)
	var fused StaircaseModule
	var plain DistMapModule
	var scF, scP Scratch
	for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 200} {
		for trial := 0; trial < 200; trial++ {
			universe := 4 + rng.Intn(60)
			stair := trial%4 != 3
			self := DistMap{}
			if trial%3 != 0 {
				self = randomStairList(rng, universe, stair)
			}
			terms := make([]Term[float64, DistMap], k)
			before := make([]DistMap, k)
			for i := range terms {
				terms[i] = Term[float64, DistMap]{S: stairShifts[rng.Intn(len(stairShifts))], X: randomStairList(rng, universe, stair)}
				before[i] = terms[i].X.Clone()
			}
			selfBefore := self.Clone()
			want := Staircase(plain.Aggregate(&scP, self, terms, nil))
			got := fused.Aggregate(&scF, self, terms, nil)
			if !sameBits(got, want) {
				t.Fatalf("k=%d trial %d: fused %v, Staircase of merge %v", k, trial, got, want)
			}
			if filtered := fused.Aggregate(&scF, self, terms, Staircase); !sameBits(filtered, want) {
				t.Fatalf("k=%d trial %d: fused under Staircase %v, want %v", k, trial, filtered, want)
			}
			if !sameBits(self, selfBefore) {
				t.Fatalf("k=%d trial %d: self written: %v, was %v", k, trial, self, selfBefore)
			}
			for i := range terms {
				if !sameBits(terms[i].X, before[i]) {
					t.Fatalf("k=%d trial %d: term %d written: %v, was %v", k, trial, i, terms[i].X, before[i])
				}
			}
			if trial%20 == 0 {
				budget := 1.0
				if want.Len() == 0 {
					budget = 0
				}
				if allocs := testing.AllocsPerRun(5, func() { fused.Aggregate(&scF, self, terms, nil) }); allocs > budget {
					t.Fatalf("k=%d trial %d: %.0f allocs over warm scratch, want ≤ %.0f", k, trial, allocs, budget)
				}
			}
		}
	}
}
