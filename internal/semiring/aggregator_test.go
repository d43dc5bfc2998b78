package semiring

// Differential and ownership tests for the Aggregator fast path: Aggregate
// must equal the (filtered) Add/SMul fold exactly, must not mutate its
// inputs, and must return a value that shares no storage with them or with
// its scratch.

import (
	"math/rand"
	"testing"
)

func randDistMap(rng *rand.Rand, n int) DistMap {
	out := DistMap{}
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			out = out.Append(NodeID(v), float64(rng.Intn(50))/2)
		}
	}
	return out
}

// scribble overwrites every key and distance of x in reverse order, as a
// caller owning x may.
func scribble(x DistMap) {
	for i := range x.ids {
		x.ids[i], x.ds[i] = NodeID(len(x.ids)-i), 1000+x.ds[i]
	}
}

// foldDist is the generic-path reference: the left fold of Definition 2.11.
func foldDist(self DistMap, terms []Term[float64, DistMap]) DistMap {
	var mod DistMapModule
	acc := self
	for _, t := range terms {
		acc = mod.Add(acc, mod.SMul(t.S, t.X))
	}
	return acc
}

func TestAggregateDistMapMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var mod DistMapModule
	var sc Scratch // deliberately shared across rounds: reuse must be safe
	for round := 0; round < 500; round++ {
		self := randDistMap(rng, 24)
		terms := make([]Term[float64, DistMap], rng.Intn(7))
		for i := range terms {
			s := float64(rng.Intn(6)) // includes 0, the scalar identity
			if rng.Intn(8) == 0 {
				s = Inf // dead edge
			}
			terms[i] = Term[float64, DistMap]{S: s, X: randDistMap(rng, 24)}
		}
		want := foldDist(self, terms)
		got := mod.Aggregate(&sc, self, terms, nil)
		if !mod.Equal(got, want) {
			t.Fatalf("round %d: Aggregate %v != fold %v (self %v)", round, got, want, self)
		}
	}
}

func TestAggregateScalarModulesMatchFold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var mp MinPlusSelf
	var mm MaxMinSelf
	randVal := func() float64 {
		if rng.Intn(6) == 0 {
			return Inf
		}
		return float64(rng.Intn(30)) / 2
	}
	within := func(x float64) float64 {
		if x <= 6 {
			return x
		}
		return Inf
	}
	wide := func(x float64) float64 {
		if x >= 4 {
			return x
		}
		return 0
	}
	for round := 0; round < 500; round++ {
		selfD, selfW := randVal(), float64(rng.Intn(20))
		terms := make([]Term[float64, float64], rng.Intn(7))
		accD, accW := selfD, selfW
		for i := range terms {
			terms[i] = Term[float64, float64]{S: randVal(), X: randVal()}
			accD = mp.Add(accD, mp.SMul(terms[i].S, terms[i].X))
			accW = mm.Add(accW, mm.SMul(terms[i].S, terms[i].X))
		}
		if got := mp.Aggregate(nil, selfD, terms, nil); got != accD {
			t.Fatalf("round %d: MinPlusSelf.Aggregate %v != fold %v", round, got, accD)
		}
		if got := mm.Aggregate(nil, selfW, terms, nil); got != accW {
			t.Fatalf("round %d: MaxMinSelf.Aggregate %v != fold %v", round, got, accW)
		}
		if got, want := mp.Aggregate(nil, selfD, terms, within), within(accD); got != want {
			t.Fatalf("round %d: filtered MinPlusSelf.Aggregate %v != filtered fold %v", round, got, want)
		}
		if got, want := mm.Aggregate(nil, selfW, terms, wide), wide(accW); got != want {
			t.Fatalf("round %d: filtered MaxMinSelf.Aggregate %v != filtered fold %v", round, got, want)
		}
	}
}

// TestAggregateOwnershipFuzz is the alias/mutation fuzz of the scratch-reuse
// contract: Aggregate must leave every input byte-identical, and its result
// must be mutable without corrupting any input — even when the same Scratch
// is reused across calls, as the engine's per-worker pools do.
func TestAggregateOwnershipFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var mod DistMapModule
	var sc Scratch
	for round := 0; round < 300; round++ {
		self := randDistMap(rng, 32)
		terms := make([]Term[float64, DistMap], 1+rng.Intn(6))
		for i := range terms {
			terms[i] = Term[float64, DistMap]{S: float64(rng.Intn(5)), X: randDistMap(rng, 32)}
		}
		selfCopy := self.Clone()
		termCopies := make([]DistMap, len(terms))
		for i, tm := range terms {
			termCopies[i] = tm.X.Clone()
		}

		out := mod.Aggregate(&sc, self, terms, nil)
		// Scribble over the result (legal: the caller owns it exclusively):
		// inputs must not see it.
		scribble(out)
		if !mod.Equal(self, selfCopy) {
			t.Fatalf("round %d: Aggregate (or mutating its result) changed self: %v != %v", round, self, selfCopy)
		}
		for i, tm := range terms {
			if !mod.Equal(tm.X, termCopies[i]) {
				t.Fatalf("round %d: Aggregate (or mutating its result) changed term %d: %v != %v", round, i, tm.X, termCopies[i])
			}
		}
	}
}

// TestDistMapSafeAliasing pins the documented safe-aliasing contract: the
// identity cases of SMul and Add return their input unchanged (aliased), so
// the algebra's outputs must be treated as immutable. The mutation-detection
// half asserts that the non-identity operations never write to their inputs.
func TestDistMapSafeAliasing(t *testing.T) {
	var mod DistMapModule
	x := FromEntries(Entry{Node: 1, Dist: 2}, Entry{Node: 5, Dist: 0.5})

	// s == 0 is the scalar identity: the input itself comes back.
	y := mod.SMul(0, x)
	if &y.ids[0] != &x.ids[0] || &y.ds[0] != &x.ds[0] {
		t.Fatal("SMul(0, x) no longer aliases x; update the documented contract")
	}
	// Add with an empty side returns the other side aliased.
	if z := mod.Add(DistMap{}, x); &z.ids[0] != &x.ids[0] || &z.ds[0] != &x.ds[0] {
		t.Fatal("Add(⊥, x) no longer aliases x; update the documented contract")
	}
	// SMul shares the input's ID array and pairs it with fresh distances.
	if z := mod.SMul(3, x); &z.ids[0] != &x.ids[0] {
		t.Fatal("SMul no longer shares the ID array; update the documented contract")
	} else if &z.ds[0] == &x.ds[0] {
		t.Fatal("SMul shares the distance array; shifting would corrupt x")
	}

	// Mutation detection: shifting, merging, and filtering leave x intact.
	before := x.Clone()
	_ = mod.SMul(3, x)
	_ = mod.Add(x, FromEntries(Entry{Node: 0, Dist: 1}, Entry{Node: 5, Dist: 0.25}))
	_ = TopKFilter(1, Inf, nil)(x)
	if !mod.Equal(x, before) {
		t.Fatalf("algebra operation mutated its input: %v != %v", x, before)
	}
}
