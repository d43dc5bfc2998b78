package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		seen := make([]atomic.Int32, n)
		ForEach(n, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d index %d visited %d times, want 1", n, i, got)
			}
		}
	}
}

func TestForEachSequentialFallback(t *testing.T) {
	old := MaxProcs
	defer func() { MaxProcs = old }()
	MaxProcs = 1
	var order []int
	ForEach(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential fallback out of order: %v", order)
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 17, 1024} {
		got := Reduce(n, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
		want := n * (n - 1) / 2
		if got != want {
			t.Fatalf("Reduce sum n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestReduceMax(t *testing.T) {
	vals := []int{3, 9, 2, 41, 7, 41, 0}
	got := Reduce(len(vals), -1,
		func(i int) int { return vals[i] },
		func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
	if got != 41 {
		t.Fatalf("Reduce max: got %d want 41", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s := r.Split()
	// The split stream must not simply replay the parent stream.
	equal := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == s.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split stream correlates with parent: %d/64 equal draws", equal)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(2)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Intn(10) badly skewed: value %d drawn %d/100000 times", v, c)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(3).Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	check := func(n uint8) bool {
		p := r.Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(5)
	const trials = 200000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += r.Geometric(0.5)
	}
	mean := float64(sum) / trials
	// E[Geometric(1/2)] = 1 (number of successes before first failure).
	if mean < 0.93 || mean > 1.07 {
		t.Fatalf("Geometric(0.5) mean %.3f, want ~1.0", mean)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 63, 2, 1, 0},
		{^uint64(0), ^uint64(0), ^uint64(0) - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.AddWork(5)
	tr.AddDepth(3)
	tr.AddPhase(1, 1)
	tr.MaxDepth(10)
	tr.Reset()
	if tr.Work() != 0 || tr.Depth() != 0 {
		t.Fatal("nil tracker should report zero")
	}
}

func TestTrackerAccumulates(t *testing.T) {
	tr := &Tracker{}
	tr.AddWork(10)
	tr.AddPhase(5, 2)
	tr.AddDepth(1)
	if tr.Work() != 15 {
		t.Fatalf("work = %d, want 15", tr.Work())
	}
	if tr.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", tr.Depth())
	}
	tr.Reset()
	if tr.Work() != 0 || tr.Depth() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestTrackerMaxDepth(t *testing.T) {
	tr := &Tracker{}
	tr.AddDepth(5)
	tr.MaxDepth(3) // no-op, 5 > 3
	if tr.Depth() != 5 {
		t.Fatalf("depth = %d, want 5", tr.Depth())
	}
	tr.MaxDepth(9)
	if tr.Depth() != 9 {
		t.Fatalf("depth = %d, want 9", tr.Depth())
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := &Tracker{}
	ForEach(1000, func(i int) { tr.AddWork(1) })
	if tr.Work() != 1000 {
		t.Fatalf("concurrent work = %d, want 1000", tr.Work())
	}
}

func BenchmarkForEach(b *testing.B) {
	var sink atomic.Int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForEach(1024, func(j int) { sink.Add(int64(j & 1)) })
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

// withMaxProcs forces a parallel width for the duration of f so the parallel
// branches are exercised even when the test host has a single core.
func withMaxProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	old := MaxProcs
	defer func() { MaxProcs = old }()
	MaxProcs = procs
	f()
}

func TestForEachParallelCoversAllIndices(t *testing.T) {
	withMaxProcs(t, 4, func() {
		const n = 1000
		var hits [n]atomic.Int64
		ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("index %d visited %d times", i, hits[i].Load())
			}
		}
	})
}

func TestForEachChunkCoversDisjointRanges(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withMaxProcs(t, procs, func() {
			const n = 1000
			var hits [n]atomic.Int64
			ForEachChunk(n, func(start, end int) {
				if start < 0 || end > n || start >= end {
					t.Errorf("bad range [%d,%d)", start, end)
				}
				for i := start; i < end; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("procs=%d: index %d visited %d times", procs, i, hits[i].Load())
				}
			}
		})
	}
	ForEachChunk(0, func(start, end int) { t.Error("body called for n=0") })
}

func TestReduceParallelMatchesSequential(t *testing.T) {
	const n = 5000
	body := func(i int) int { return i * i }
	merge := func(a, b int) int { return a + b }
	want := Reduce(n, 0, body, merge)
	withMaxProcs(t, 4, func() {
		if got := Reduce(n, 0, body, merge); got != want {
			t.Fatalf("parallel sum %d, sequential says %d", got, want)
		}
	})
	if got := Reduce(0, 42, body, merge); got != 42 {
		t.Fatalf("empty reduce returned %d, want the identity", got)
	}
}

func TestRNGSplitNAndBool(t *testing.T) {
	rng := NewRNG(7)
	rngs := rng.SplitN(4)
	if len(rngs) != 4 {
		t.Fatalf("SplitN returned %d generators", len(rngs))
	}
	seen := map[uint64]bool{}
	for _, r := range rngs {
		v := r.Uint64()
		if seen[v] {
			t.Fatal("split generators emitted the same first draw")
		}
		seen[v] = true
	}
	heads := 0
	for i := 0; i < 2000; i++ {
		if rng.Bool() {
			heads++
		}
	}
	if heads < 800 || heads > 1200 {
		t.Fatalf("%d heads out of 2000 — Bool badly biased", heads)
	}
}
