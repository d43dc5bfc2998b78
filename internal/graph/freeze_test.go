package graph

import (
	"math/rand"
	"strings"
	"testing"

	"parmbf/internal/par"
)

// sameGraph asserts that a and b are byte-identical CSR layouts: equal row
// offsets and equal arc arrays, element for element.
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape mismatch: (%d nodes, %d edges) vs (%d nodes, %d edges)",
			a.N(), a.M(), b.N(), b.M())
	}
	for i := range a.rowStart {
		if a.rowStart[i] != b.rowStart[i] {
			t.Fatalf("rowStart[%d]: %d vs %d", i, a.rowStart[i], b.rowStart[i])
		}
	}
	if len(a.arcs) != len(b.arcs) {
		t.Fatalf("arc count: %d vs %d", len(a.arcs), len(b.arcs))
	}
	for i := range a.arcs {
		if a.arcs[i] != b.arcs[i] {
			t.Fatalf("arcs[%d]: %+v vs %+v", i, a.arcs[i], b.arcs[i])
		}
	}
	if a.symmetric != b.symmetric {
		t.Fatalf("symmetric flag: %v vs %v", a.symmetric, b.symmetric)
	}
}

// randomBuilder accumulates a messy edge stream: duplicates with differing
// weights, both orientations, skewed endpoint distribution — everything the
// dedup and stable scatter must handle.
func randomBuilder(n, m int, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for len(b.edges) < m {
		u := Node(rng.Intn(n))
		// Square the second draw toward low ids for degree skew.
		v := Node(rng.Intn(n) * rng.Intn(n) / n)
		if u == v {
			continue
		}
		w := quantize(0.5 + rng.Float64())
		if rng.Intn(4) == 0 {
			u, v = v, u // reversed duplicates
		}
		b.Add(u, v, w)
		if rng.Intn(3) == 0 { // parallel edge, different weight
			b.Add(u, v, quantize(0.5+rng.Float64()))
		}
	}
	return b
}

// TestFreezeParallelMatchesSerial pins the tentpole invariant: the parallel
// scatter produces a byte-identical graph to the serial reference at every
// parallel width, for edge streams both above and below the dispatch
// threshold.
func TestFreezeParallelMatchesSerial(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	for _, tc := range []struct{ n, m int }{
		{n: 5, m: 8},
		{n: 64, m: 300},
		{n: 1000, m: 5000},
		{n: 300, m: 100000}, // heavy duplication, above freezeParallelMin
	} {
		b := randomBuilder(tc.n, tc.m, int64(tc.n*31+tc.m))
		want := b.freezeSerial()
		for _, procs := range []int{1, 2, 3, 7, 16} {
			par.MaxProcs = procs
			sameGraph(t, want, b.freezeParallel())
		}
	}
}

// TestFreezeDispatchEquivalence drives the public Freeze entry point across
// parallel widths: whatever path the dispatcher picks, the output must
// equal the serial reference.
func TestFreezeDispatchEquivalence(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	b := randomBuilder(2000, 80000, 7)
	want := b.freezeSerial()
	for _, procs := range []int{1, 4} {
		par.MaxProcs = procs
		sameGraph(t, want, b.Freeze())
	}
}

// TestFreezeParallelNoDuplicates exercises the kept == m2 fast path where
// the dedup pass collapses nothing and the scatter array is used as-is.
func TestFreezeParallelNoDuplicates(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	b := NewBuilder(200)
	for u := 0; u < 200; u++ {
		for d := 1; d <= 3; d++ {
			v := (u + d*7 + 1) % 200
			if u < v {
				b.Add(Node(u), Node(v), quantize(1+float64(u%13)/13))
			}
		}
	}
	want := b.freezeSerial()
	par.MaxProcs = 8
	sameGraph(t, want, b.freezeParallel())
}

// TestCheckArcCapacity unit-tests the int32 overflow guard with mocked
// counts: 2^30 edges is the first count whose 2m directed arcs no longer
// fit int32 offsets.
func TestCheckArcCapacity(t *testing.T) {
	if err := checkArcCapacity(maxFreezeEdges); err != nil {
		t.Fatalf("capacity check rejected the maximum legal count: %v", err)
	}
	err := checkArcCapacity(maxFreezeEdges + 1)
	if err == nil {
		t.Fatal("capacity check accepted an overflowing edge count")
	}
	if !strings.Contains(err.Error(), "int32") {
		t.Fatalf("overflow error should name the int32 offset range, got %q", err)
	}
}

// TestFreezeCheckedSmall confirms the error-returning entry point behaves
// like Freeze on legal inputs.
func TestFreezeCheckedSmall(t *testing.T) {
	b := NewBuilder(3).Add(0, 1, 1).Add(1, 2, 2)
	g, err := b.FreezeChecked()
	if err != nil {
		t.Fatalf("FreezeChecked: %v", err)
	}
	sameGraph(t, b.freezeSerial(), g)
}
