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

// --- merge-kernel micro-benchmarks (`make bench-semiring`) ---------------
//
// BenchmarkMergeKernel times the SoA k-way merge behind Aggregate on each
// rung of the dispatch ladder (distmerge.go): k=2 galloping two-way, k=4/8
// unrolled head-min loops, k=16/40 one reduction round, k=72 two rounds,
// k=600 three rounds (past 8·8·8 lists, the hub neighbourhoods of H).
// BenchmarkMergeKernelAoS folds the same inputs through a faithful replica
// of the pre-SoA array-of-structs layout — pairwise two-way merges over
// []aosEntry — so the trajectory in BENCH_semiring.json keeps the layout
// comparison honest run over run.

var mergeKernelKs = []int{2, 4, 8, 16, 40, 72, 600}

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

// stairKernelKs are the list counts of BenchmarkMergeKernelStaircase: a
// pair, the last stack-gathered rung of the merge, one reduction round, and
// two rounds (the 65–128-term aggregations that dominate an embed draw).
var stairKernelKs = []int{2, 8, 40, 80}

// stairKernelInputs builds k staircases of 8 entries plus a self staircase,
// shaped like a rank-keyed LE-list neighbourhood: keys spread over a shared
// range, distances strictly decreasing in key order.
func stairKernelInputs(k int) (DistMap, []Term[float64, DistMap]) {
	stair := func(seed int64) DistMap {
		rng := rand.New(rand.NewSource(seed))
		m := NewDistMap(8)
		node, d := NodeID(0), float64(1000+rng.Intn(1000))
		for i := 0; i < 8; i++ {
			node += NodeID(1 + rng.Intn(16))
			d -= float64(1 + rng.Intn(120))
			m = m.Append(node, d)
		}
		return m
	}
	self := stair(100)
	terms := make([]Term[float64, DistMap], k)
	for i := range terms {
		terms[i] = Term[float64, DistMap]{S: float64(1 + i%7), X: stair(int64(i))}
	}
	return self, terms
}

// BenchmarkMergeKernelStaircase times the LE-list aggregation on staircase
// inputs both ways: fused, StaircaseModule's one pruning pass, and merge,
// DistMapModule's k-way merge into scratch followed by Staircase, which
// computes the same result.
func BenchmarkMergeKernelStaircase(b *testing.B) {
	for _, v := range []struct {
		name   string
		mod    Aggregator[float64, DistMap]
		filter Filter[DistMap]
	}{
		{"fused", StaircaseModule{}, nil},
		{"merge", DistMapModule{}, Staircase},
	} {
		for _, k := range stairKernelKs {
			b.Run(v.name+"/"+benchK(k), func(b *testing.B) {
				self, terms := stairKernelInputs(k)
				var sc Scratch
				v.mod.Aggregate(&sc, self, terms, v.filter) // warm the pooled buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.mod.Aggregate(&sc, self, terms, v.filter)
				}
			})
		}
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
