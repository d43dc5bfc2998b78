package semiring

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchDistMap(n int, seed int64) DistMap {
	rng := rand.New(rand.NewSource(seed))
	m := NewDistMap(n)
	node := NodeID(0)
	for i := 0; i < n; i++ {
		node += NodeID(1 + rng.Intn(3))
		m = m.Append(node, float64(rng.Intn(1000)))
	}
	return m
}

func BenchmarkDistMapAdd(b *testing.B) {
	x := benchDistMap(32, 1)
	y := benchDistMap(32, 2)
	mod := DistMapModule{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mod.Add(x, y)
	}
}

func BenchmarkDistMapSMul(b *testing.B) {
	x := benchDistMap(32, 3)
	mod := DistMapModule{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mod.SMul(2.5, x)
	}
}

func BenchmarkMergeMin8Way(b *testing.B) {
	xs := make([]DistMap, 8)
	for i := range xs {
		xs[i] = benchDistMap(16, int64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MergeMin(xs...)
	}
}

func BenchmarkTopKFilter(b *testing.B) {
	x := benchDistMap(64, 4)
	r := TopKFilter(8, Inf, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r(x)
	}
}

func BenchmarkAllPathsMul(b *testing.B) {
	x := PathSet{}
	y := PathSet{}
	for i := NodeID(0); i < 8; i++ {
		x[MakePath(0, 1+i)] = float64(i)
		y[MakePath(1+i, 20+i)] = float64(i)
	}
	sr := AllPaths{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr.Mul(x, y)
	}
}

func BenchmarkRouteMapAdd(b *testing.B) {
	mod := RouteMapModule{}
	x := make(RouteMap, 32)
	y := make(RouteMap, 32)
	for i := range x {
		x[i] = Route{Target: NodeID(2 * i), Dist: float64(i), Next: 1}
		y[i] = Route{Target: NodeID(2*i + 1), Dist: float64(i), Next: 2}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mod.Add(x, y)
	}
}

// --- merge-kernel micro-benchmarks (`make bench-semiring`) ---------------
//
// BenchmarkMergeKernel times the SoA k-way merge behind Aggregate on each
// rung of the dispatch ladder (distmerge.go): k=2 galloping two-way, k=4/8
// unrolled head-min loops, k=16/40 one reduction round, k=72 two rounds.
// BenchmarkMergeKernelAoS folds the same inputs through a faithful replica
// of the pre-SoA array-of-structs layout — pairwise two-way merges over
// []aosEntry — so the trajectory in BENCH_semiring.json keeps the layout
// comparison honest run over run.

var mergeKernelKs = []int{2, 4, 8, 16, 40, 72}

// mergeKernelInputs builds k lists of 16 entries plus a self state, shaped
// like a filtered MBF neighborhood.
func mergeKernelInputs(k int) (DistMap, []Term[float64, DistMap]) {
	self := benchDistMap(16, 100)
	terms := make([]Term[float64, DistMap], k)
	for i := range terms {
		terms[i] = Term[float64, DistMap]{S: float64(1 + i%7), X: benchDistMap(16, int64(i))}
	}
	return self, terms
}

func BenchmarkMergeKernel(b *testing.B) {
	mod := DistMapModule{}
	for _, k := range mergeKernelKs {
		b.Run(benchK(k), func(b *testing.B) {
			self, terms := mergeKernelInputs(k)
			var sc Scratch
			mod.Aggregate(&sc, self, terms, nil) // warm the pooled buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mod.Aggregate(&sc, self, terms, nil)
			}
		})
	}
}

// aosEntry replicates the pre-SoA DistMap element: interleaved (node, dist)
// pairs, 16 bytes each, so a merge touches twice the cache lines per ID scan
// that the split ids/ds layout does.
type aosEntry struct {
	node NodeID
	d    float64
}

// aosMerge2 is the old layout's two-way shifted min-merge.
func aosMerge2(a []aosEntry, b []aosEntry, shift float64) []aosEntry {
	out := make([]aosEntry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].node < b[j].node:
			out = append(out, a[i])
			i++
		case a[i].node > b[j].node:
			out = append(out, aosEntry{b[j].node, b[j].d + shift})
			j++
		default:
			d := a[i].d
			if v := b[j].d + shift; v < d {
				d = v
			}
			out = append(out, aosEntry{a[i].node, d})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		out = append(out, aosEntry{b[j].node, b[j].d + shift})
	}
	return out
}

func toAoS(m DistMap) []aosEntry {
	out := make([]aosEntry, m.Len())
	for i := range out {
		out[i] = aosEntry{m.Node(i), m.Dist(i)}
	}
	return out
}

func BenchmarkMergeKernelAoS(b *testing.B) {
	for _, k := range mergeKernelKs {
		b.Run(benchK(k), func(b *testing.B) {
			self, terms := mergeKernelInputs(k)
			acc0 := toAoS(self)
			lists := make([][]aosEntry, len(terms))
			for i, t := range terms {
				lists[i] = toAoS(t.X)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc := acc0
				for li, l := range lists {
					acc = aosMerge2(acc, l, terms[li].S)
				}
			}
		})
	}
}

func benchK(k int) string {
	return "k=" + strconv.Itoa(k)
}
