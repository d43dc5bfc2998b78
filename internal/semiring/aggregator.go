package semiring

// This file defines the optional fast-aggregation interface of semimodules.
//
// One MBF-like iteration aggregates, at every node v, the propagated states
// of its neighbors and filters the result: x'(v) = r(x(v) ⊕ ⊕_w a_{vw} ⊙
// x(w)). Folding Add/SMul pairwise materialises a fresh intermediate per
// neighbor and re-copies the accumulator each step — O(d·k) allocation
// churn for degree d and state size k. Lemma 2.3 of the paper aggregates
// all k inputs in ONE merge; the Aggregator interface exposes exactly that:
// the engine hands a semimodule the whole neighborhood and the filter at
// once, and the module merges the sorted entry lists, applies the filter to
// a value it owns, and allocates only the result.
//
// Implementing Aggregator is optional. The engine (mbf.Runner) type-asserts
// for it and falls back to the generic Add/SMul fold, so Definition 2.11
// semantics are defined solely by the Semimodule laws; Aggregate must be
// extensionally equal to the filtered fold (the differential tests in
// internal/mbf pin this on random graphs for every module below). A module
// implements it only where the merge measurably beats the fold: DistMap
// (every oracle, LE-list and source-detection iteration), RouteMap (the
// routing tables' memory) and the two scalar algebras.

// Term is one summand s ⊙ x of a k-way aggregation: S is the
// adjacency-matrix entry of the edge and X the neighbor's state.
type Term[S, M any] struct {
	S S
	X M
}

// Aggregator is the optional fast-aggregation interface of a semimodule.
// Implement it when states are sorted entry lists (or scalars) whose ⊕ is a
// positional merge and a paired benchmark shows the merge beating the fold;
// stay with the generic fold otherwise (e.g. the all-paths semiring, whose ⊕
// unions path sets of heterogeneous keys).
type Aggregator[S, M any] interface {
	Semimodule[S, M]

	// Aggregate returns
	//
	//	filter(self ⊕ ⊕_i terms[i].S ⊙ terms[i].X)
	//
	// computed as one k-way merge instead of a left fold of Add/SMul, or the
	// plain merge when filter is nil. It must equal the filtered fold
	// exactly.
	//
	// The filter is applied to an intermediate the module owns exclusively,
	// so engines pass their in-place filter variant when they have one; the
	// filter must not retain its argument. The result never aliases self,
	// any term, or sc — the caller owns it exclusively. terms and sc are
	// caller-owned scratch, reused across calls; Aggregate must not retain
	// references to either.
	Aggregate(sc *Scratch, self M, terms []Term[S, M], filter Filter[M]) M
}

// Scratch holds the reusable buffers of Aggregate: the k-way-merge cursor
// heap, per-module list headers, and the reduction arenas of the SoA
// distance-map kernel (distmerge.go). A zero Scratch is ready to use;
// engines keep one per worker (mbf.Runner recycles them through a
// sync.Pool) so steady-state aggregation allocates nothing beyond the
// merged result.
type Scratch struct {
	pos    []int32
	heap   []mergeCursor
	shifts []float64
	routes []RouteMap
	vias   []NodeID
	// SoA distance-map kernel state: per-list ID/distance headers, the
	// reduction-round group headers, and the two ping-pong arenas.
	dIds    [][]NodeID
	dDs     [][]float64
	rIds    [][]NodeID
	rDs     [][]float64
	rShifts []float64
	arenas  [2]mergeArena
	// out is the scratch-owned merge output a filtered Aggregate filters
	// in place before copying out the survivors.
	out mergeArena
}

// mergeArena is one reduction-round output buffer of the SoA kernel.
type mergeArena struct {
	ids []NodeID
	ds  []float64
}

// grow pre-sizes the k-way-merge buffers for k lists in one place, so a
// fresh (or pool-recycled) Scratch does not re-grow pos/heap one append at
// a time on its first large-degree node. Pinned by the allocs-per-op
// regression test in distmerge_test.go.
func (sc *Scratch) grow(k int) {
	if cap(sc.pos) < k {
		sc.pos = make([]int32, 0, k)
		sc.heap = make([]mergeCursor, 0, k)
	}
}

// growDist pre-sizes the SoA distance-map kernel buffers for k lists.
func (sc *Scratch) growDist(k int) {
	if cap(sc.dIds) < k {
		sc.dIds = make([][]NodeID, 0, k)
		sc.dDs = make([][]float64, 0, k)
		sc.shifts = make([]float64, 0, k)
	}
	if k > 8 {
		groups := (k + 7) / 8
		if cap(sc.rIds) < groups {
			sc.rIds = make([][]NodeID, 0, groups)
			sc.rDs = make([][]float64, 0, groups)
			sc.rShifts = make([]float64, 0, groups)
		}
		if k > heapMergeMinLists {
			sc.grow(k)
		}
	}
}

// mergeCursor is one heap element of the k-way merge: the current node ID of
// list li. Ordering is by (node, li), so elements with equal node IDs are
// visited in list order.
type mergeCursor struct {
	node NodeID
	li   int32
}

func cursorLess(a, b mergeCursor) bool {
	return a.node < b.node || (a.node == b.node && a.li < b.li)
}

// siftDown restores the 4-ary min-heap property at index i (children of i
// are 4i+1 … 4i+4). A 4-ary layout halves the tree height of a binary heap
// and keeps the children of a node in one cache line.
func siftDown(h []mergeCursor, i int) {
	for {
		best := i
		hi := 4*i + 4
		if hi >= len(h) {
			hi = len(h) - 1
		}
		for c := 4*i + 1; c <= hi; c++ {
			if cursorLess(h[c], h[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// mergeSorted walks the k-way merge of sorted entry lists in ascending node
// order: visit(li, e, first) is called once per element, with first marking
// the start of a new node-ID group. Elements with equal node IDs are visited
// in ascending list order, matching the left fold's combination order. Each
// list must be strictly sorted by node ID (the representation invariant of
// the sparse modules).
//
// k ≤ 2 merges directly; larger k runs a 4-ary heap of cursors over sc,
// costing O(N log₄ k) comparisons for N total entries.
func mergeSorted[L ~[]E, E any](sc *Scratch, lists []L, node func(E) NodeID, visit func(li int32, e E, first bool)) {
	sc.grow(len(lists))
	switch len(lists) {
	case 0:
		return
	case 1:
		for _, e := range lists[0] {
			visit(0, e, true)
		}
		return
	case 2:
		a, b := lists[0], lists[1]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			an, bn := node(a[i]), node(b[j])
			switch {
			case an < bn:
				visit(0, a[i], true)
				i++
			case an > bn:
				visit(1, b[j], true)
				j++
			default:
				visit(0, a[i], true)
				visit(1, b[j], false)
				i++
				j++
			}
		}
		for ; i < len(a); i++ {
			visit(0, a[i], true)
		}
		for ; j < len(b); j++ {
			visit(1, b[j], true)
		}
		return
	}
	pos := sc.pos[:0]
	heap := sc.heap[:0]
	for li, l := range lists {
		pos = append(pos, 0)
		if len(l) > 0 {
			heap = append(heap, mergeCursor{node: node(l[0]), li: int32(li)})
		}
	}
	for i := (len(heap) - 2) / 4; i >= 0; i-- {
		siftDown(heap, i)
	}
	last := NodeID(-1)
	for len(heap) > 0 {
		cur := heap[0]
		li := cur.li
		e := lists[li][pos[li]]
		visit(li, e, cur.node != last)
		last = cur.node
		pos[li]++
		if int(pos[li]) < len(lists[li]) {
			heap[0].node = node(lists[li][pos[li]])
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) == 0 {
				break
			}
		}
		siftDown(heap, 0)
	}
	sc.pos, sc.heap = pos[:0], heap[:0]
}
