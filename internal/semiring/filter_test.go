package semiring

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// bruteTopK is TopKFilter by its definition: the eligible entries sorted by
// (distance, node), the first k of them (all when k ≤ 0), back in node
// order.
func bruteTopK(x DistMap, k int, maxDist float64, sources func(NodeID) bool) DistMap {
	var es []Entry
	for _, e := range x.Entries() {
		if e.Dist <= maxDist && (sources == nil || sources(e.Node)) {
			es = append(es, e)
		}
	}
	slices.SortFunc(es, func(a, b Entry) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	if k > 0 && len(es) > k {
		es = es[:k]
	}
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Node, b.Node) })
	return FromEntries(es...)
}

// checkFilterContract fails t unless f(x) equals want(x), leaves x bitwise
// unchanged, and is x itself or shares no storage with it — the contract of
// Filter. The frt package runs Order.Filter through its own copy of the
// storage check.
func checkFilterContract(t *testing.T, name string, f Filter[DistMap], want func(DistMap) DistMap, x DistMap) {
	t.Helper()
	before := x.Clone()
	got := f(x)
	if w := want(before); !sameBits(got, w) {
		t.Fatalf("%s(%v) = %v, want %v", name, before, got, w)
	}
	if !sameBits(x, before) {
		t.Fatalf("%s wrote its input: %v, was %v", name, x, before)
	}
	itself := len(got.ids) == len(x.ids) &&
		unsafe.SliceData(got.ids) == unsafe.SliceData(x.ids) && unsafe.SliceData(got.ds) == unsafe.SliceData(x.ds)
	if itself {
		return
	}
	for _, a := range [][2]uintptr{span(got.ids), span(got.ds)} {
		for _, b := range [][2]uintptr{span(x.ids), span(x.ds)} {
			if a[0] < b[1] && b[0] < a[1] {
				t.Fatalf("%s(%v) = %v shares storage with its input", name, before, got)
			}
		}
	}
}

// span is the address range [start, end) of s's elements.
func span[E any](s []E) [2]uintptr {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return [2]uintptr{p, p + uintptr(len(s))*unsafe.Sizeof(*new(E))}
}

// TestFilterContract pins the contract every filter of this package keeps
// (see Filter) on random maps with many tied distances: Staircase and
// TopKFilter in all four shapes (pure top-k, a distance bound, a source set,
// both), for k from 0 (unbounded) to 5 and at 70, where the selection heap
// no longer fits on the stack.
func TestFilterContract(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	sources := func(v NodeID) bool { return v%3 != 2 }
	type filterCase struct {
		name string
		f    Filter[DistMap]
		want func(DistMap) DistMap
	}
	cases := []filterCase{{"Staircase", Staircase, bruteStaircase}}
	for _, k := range []int{0, 1, 2, 3, 4, 5, 70} {
		for _, shape := range []struct {
			name    string
			maxDist float64
			sources func(NodeID) bool
		}{{"pure", Inf, nil}, {"maxDist", 6, nil}, {"sources", Inf, sources}, {"both", 6, sources}} {
			cases = append(cases, filterCase{
				name: fmt.Sprintf("TopKFilter/%s/k=%d", shape.name, k),
				f:    TopKFilter(k, shape.maxDist, shape.sources),
				want: func(x DistMap) DistMap { return bruteTopK(x, k, shape.maxDist, shape.sources) },
			})
		}
	}
	for _, c := range cases {
		for trial := 0; trial < 200; trial++ {
			// Odd trials trend downwards, so Staircase keeps long runs.
			x := DistMap{}
			universe, p := 1+rng.Intn(160), rng.Float64()
			for v := 0; v < universe; v++ {
				if rng.Float64() < p {
					d := rng.Intn(12)
					if trial%2 == 1 {
						d += 2 * (universe - v)
					}
					x = x.Append(NodeID(v), float64(d))
				}
			}
			checkFilterContract(t, c.name, c.f, c.want, x)
		}
	}
}
