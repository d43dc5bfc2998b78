package semiring

// This file is the k-way min-merge kernel of the distance-map semimodule —
// the single merge implementation behind DistMapModule.Add and Aggregate,
// and therefore the inner loop of every MBF-like iteration, oracle
// cross-level merge, and LE-list pass (Lemma 2.3).
//
// The kernel exploits the SoA layout of DistMap: the merge order is decided
// on the contiguous int32 node-ID arrays alone, with the float64 payload
// touched only to apply the per-list shift and combine duplicates. Exhausted
// cursors are represented by an int64 sentinel above every valid node ID, so
// the 3-/4-way merges run a fixed unrolled min over int64 heads with no
// length checks in the comparison path. The dispatch ladder is
//
//	k ≤ 8    direct merge (2-way with galloping run copies, 3-/4-/8-way
//	         unrolled head-min loops; the 8-way pads missing lists with
//	         always-sentinel cursors),
//	k ≤ 512  reduction rounds: groups of ≤ 8 lists merge into pooled
//	         ping-pong arenas (shifts folded in at the leaf round, remainder
//	         groups of one passed through unmerged), ⌈log₈ k⌉ - 1 ≤ 2 rounds
//	         leaving at most 8 lists for the direct finale,
//	k > 512  the classic cursor heap (4-ary, pooled): a third reduction
//	         round would revisit an arena still referenced by a passthrough
//	         view, so past two rounds the heap takes over.

// idSentinel is returned as the head of an exhausted cursor: it compares
// greater than every valid node ID (IDs are int32, including MaxInt32).
const idSentinel = int64(1) << 40

// headOf returns the i-th node ID of ids widened to int64, or idSentinel
// when the cursor is exhausted.
func headOf(ids []NodeID, i int) int64 {
	if i < len(ids) {
		return int64(ids[i])
	}
	return idSentinel
}

// copyShiftInto appends one list, its shift applied, to the output.
func copyShiftInto(oIds []NodeID, oDs []float64, ids []NodeID, ds []float64, s float64) ([]NodeID, []float64) {
	oIds = append(oIds, ids...)
	if s == 0 {
		oDs = append(oDs, ds...)
		return oIds, oDs
	}
	n := len(oDs)
	oDs = append(oDs, ds...)
	shifted := oDs[n:]
	for i := range shifted {
		shifted[i] += s
	}
	return oIds, oDs
}

// gallopIDs returns the number of leading ids strictly below limit, by
// doubling probes then a binary search — O(log r) for a run of length r.
func gallopIDs(ids []NodeID, limit NodeID) int {
	hi := 1
	for hi < len(ids) && ids[hi] < limit {
		hi <<= 1
	}
	if hi > len(ids) {
		hi = len(ids)
	}
	lo := hi >> 1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// merge2Into merges two shifted lists into the output: node-wise minimum on
// equal IDs, a galloping bulk copy when one side runs far ahead (the common
// shape when a long list meets a short one, e.g. the self state against a
// filtered neighbor).
func merge2Into(oIds []NodeID, oDs []float64,
	aIds []NodeID, aDs []float64, sa float64,
	bIds []NodeID, bDs []float64, sb float64) ([]NodeID, []float64) {
	const gallopAfter = 7 // consecutive one-sided takes before switching to a bulk run copy
	i, j := 0, 0
	streakA, streakB := 0, 0
	for i < len(aIds) && j < len(bIds) {
		ai, bi := aIds[i], bIds[j]
		switch {
		case ai < bi:
			oIds = append(oIds, ai)
			oDs = append(oDs, aDs[i]+sa)
			i++
			streakA++
			streakB = 0
			if streakA >= gallopAfter {
				if r := gallopIDs(aIds[i:], bi); r > 0 {
					oIds, oDs = copyShiftInto(oIds, oDs, aIds[i:i+r], aDs[i:i+r], sa)
					i += r
				}
				streakA = 0
			}
		case ai > bi:
			oIds = append(oIds, bi)
			oDs = append(oDs, bDs[j]+sb)
			j++
			streakB++
			streakA = 0
			if streakB >= gallopAfter {
				if r := gallopIDs(bIds[j:], ai); r > 0 {
					oIds, oDs = copyShiftInto(oIds, oDs, bIds[j:j+r], bDs[j:j+r], sb)
					j += r
				}
				streakB = 0
			}
		default:
			d := aDs[i] + sa
			if d2 := bDs[j] + sb; d2 < d {
				d = d2
			}
			oIds = append(oIds, ai)
			oDs = append(oDs, d)
			i++
			j++
			streakA, streakB = 0, 0
		}
	}
	if i < len(aIds) {
		oIds, oDs = copyShiftInto(oIds, oDs, aIds[i:], aDs[i:], sa)
	}
	if j < len(bIds) {
		oIds, oDs = copyShiftInto(oIds, oDs, bIds[j:], bDs[j:], sb)
	}
	return oIds, oDs
}

// merge3Into merges three shifted lists with an unrolled head-min loop.
func merge3Into(oIds []NodeID, oDs []float64,
	ids [][]NodeID, ds [][]float64, shifts []float64) ([]NodeID, []float64) {
	i0, i1, i2 := 0, 0, 0
	a0, a1, a2 := ids[0], ids[1], ids[2]
	d0, d1, d2 := ds[0], ds[1], ds[2]
	s0, s1, s2 := shifts[0], shifts[1], shifts[2]
	h0, h1, h2 := headOf(a0, 0), headOf(a1, 0), headOf(a2, 0)
	for {
		m := h0
		if h1 < m {
			m = h1
		}
		if h2 < m {
			m = h2
		}
		if m == idSentinel {
			return oIds, oDs
		}
		d := Inf
		if h0 == m {
			if v := d0[i0] + s0; v < d {
				d = v
			}
			i0++
			h0 = headOf(a0, i0)
		}
		if h1 == m {
			if v := d1[i1] + s1; v < d {
				d = v
			}
			i1++
			h1 = headOf(a1, i1)
		}
		if h2 == m {
			if v := d2[i2] + s2; v < d {
				d = v
			}
			i2++
			h2 = headOf(a2, i2)
		}
		oIds = append(oIds, NodeID(m))
		oDs = append(oDs, d)
	}
}

// merge4Into merges four shifted lists with an unrolled head-min loop.
func merge4Into(oIds []NodeID, oDs []float64,
	ids [][]NodeID, ds [][]float64, shifts []float64) ([]NodeID, []float64) {
	i0, i1, i2, i3 := 0, 0, 0, 0
	a0, a1, a2, a3 := ids[0], ids[1], ids[2], ids[3]
	d0, d1, d2, d3 := ds[0], ds[1], ds[2], ds[3]
	s0, s1, s2, s3 := shifts[0], shifts[1], shifts[2], shifts[3]
	h0, h1, h2, h3 := headOf(a0, 0), headOf(a1, 0), headOf(a2, 0), headOf(a3, 0)
	for {
		m := h0
		if h1 < m {
			m = h1
		}
		if h2 < m {
			m = h2
		}
		if h3 < m {
			m = h3
		}
		if m == idSentinel {
			return oIds, oDs
		}
		d := Inf
		if h0 == m {
			if v := d0[i0] + s0; v < d {
				d = v
			}
			i0++
			h0 = headOf(a0, i0)
		}
		if h1 == m {
			if v := d1[i1] + s1; v < d {
				d = v
			}
			i1++
			h1 = headOf(a1, i1)
		}
		if h2 == m {
			if v := d2[i2] + s2; v < d {
				d = v
			}
			i2++
			h2 = headOf(a2, i2)
		}
		if h3 == m {
			if v := d3[i3] + s3; v < d {
				d = v
			}
			i3++
			h3 = headOf(a3, i3)
		}
		oIds = append(oIds, NodeID(m))
		oDs = append(oDs, d)
	}
}

// merge8Into merges 5 ≤ k ≤ 8 shifted lists with an unrolled head-min loop;
// missing lists (k < 8) enter as nil, whose head is the sentinel from the
// start and therefore never matches the minimum.
func merge8Into(oIds []NodeID, oDs []float64,
	ids [][]NodeID, ds [][]float64, shifts []float64) ([]NodeID, []float64) {
	var a [8][]NodeID
	var d [8][]float64
	var s [8]float64
	for t := range ids {
		a[t], d[t], s[t] = ids[t], ds[t], shifts[t]
	}
	i0, i1, i2, i3, i4, i5, i6, i7 := 0, 0, 0, 0, 0, 0, 0, 0
	h0, h1, h2, h3 := headOf(a[0], 0), headOf(a[1], 0), headOf(a[2], 0), headOf(a[3], 0)
	h4, h5, h6, h7 := headOf(a[4], 0), headOf(a[5], 0), headOf(a[6], 0), headOf(a[7], 0)
	for {
		m01 := h0
		if h1 < m01 {
			m01 = h1
		}
		m23 := h2
		if h3 < m23 {
			m23 = h3
		}
		m45 := h4
		if h5 < m45 {
			m45 = h5
		}
		m67 := h6
		if h7 < m67 {
			m67 = h7
		}
		if m23 < m01 {
			m01 = m23
		}
		if m67 < m45 {
			m45 = m67
		}
		m := m01
		if m45 < m {
			m = m45
		}
		if m == idSentinel {
			return oIds, oDs
		}
		dv := Inf
		if h0 == m {
			if v := d[0][i0] + s[0]; v < dv {
				dv = v
			}
			i0++
			h0 = headOf(a[0], i0)
		}
		if h1 == m {
			if v := d[1][i1] + s[1]; v < dv {
				dv = v
			}
			i1++
			h1 = headOf(a[1], i1)
		}
		if h2 == m {
			if v := d[2][i2] + s[2]; v < dv {
				dv = v
			}
			i2++
			h2 = headOf(a[2], i2)
		}
		if h3 == m {
			if v := d[3][i3] + s[3]; v < dv {
				dv = v
			}
			i3++
			h3 = headOf(a[3], i3)
		}
		if h4 == m {
			if v := d[4][i4] + s[4]; v < dv {
				dv = v
			}
			i4++
			h4 = headOf(a[4], i4)
		}
		if h5 == m {
			if v := d[5][i5] + s[5]; v < dv {
				dv = v
			}
			i5++
			h5 = headOf(a[5], i5)
		}
		if h6 == m {
			if v := d[6][i6] + s[6]; v < dv {
				dv = v
			}
			i6++
			h6 = headOf(a[6], i6)
		}
		if h7 == m {
			if v := d[7][i7] + s[7]; v < dv {
				dv = v
			}
			i7++
			h7 = headOf(a[7], i7)
		}
		oIds = append(oIds, NodeID(m))
		oDs = append(oDs, dv)
	}
}

// mergeUpTo4Into dispatches on k ≤ 4.
func mergeUpTo4Into(oIds []NodeID, oDs []float64,
	ids [][]NodeID, ds [][]float64, shifts []float64) ([]NodeID, []float64) {
	switch len(ids) {
	case 0:
		return oIds, oDs
	case 1:
		return copyShiftInto(oIds, oDs, ids[0], ds[0], shifts[0])
	case 2:
		return merge2Into(oIds, oDs, ids[0], ds[0], shifts[0], ids[1], ds[1], shifts[1])
	case 3:
		return merge3Into(oIds, oDs, ids, ds, shifts)
	default:
		return merge4Into(oIds, oDs, ids, ds, shifts)
	}
}

// mergeUpTo8Into dispatches on k ≤ 8.
func mergeUpTo8Into(oIds []NodeID, oDs []float64,
	ids [][]NodeID, ds [][]float64, shifts []float64) ([]NodeID, []float64) {
	if len(ids) <= 4 {
		return mergeUpTo4Into(oIds, oDs, ids, ds, shifts)
	}
	return merge8Into(oIds, oDs, ids, ds, shifts)
}

// mergeDistInto merges k shifted sorted (ids, dists) lists into the output
// slices, which must not alias any input: per node ID the minimum shifted
// distance survives. The inputs must be strictly sorted by node ID (the
// DistMap invariant). Scratch buffers come from sc and are pre-sized once
// per call (growDist); the returned slices are the extended outputs.
func mergeDistInto(sc *Scratch, oIds []NodeID, oDs []float64,
	ids [][]NodeID, ds [][]float64, shifts []float64) ([]NodeID, []float64) {
	k := len(ids)
	if k <= 8 {
		return mergeUpTo8Into(oIds, oDs, ids, ds, shifts)
	}
	if k > heapMergeMinLists {
		return heapMergeInto(sc, oIds, oDs, ids, ds, shifts)
	}
	// Reduction rounds: merge groups of ≤ 8 into an arena, reducing the list
	// count by 8× per round; shifts are folded in at the first round, so later
	// rounds and the finale merge shift-free. For 8 < k ≤ 512 (past that the
	// cursor heap takes over) at most two rounds leave ≤ 8 lists for the
	// direct finale. Later rounds read group headers out of sc.rIds while
	// appending the new round's headers into the same backing array; that is
	// safe because group g's reads (indices 8g … 8g+7) finish before its
	// single header append at index g.
	total := 0
	for _, l := range ids {
		total += len(l)
	}
	arena := 0
	for k > 8 {
		a := &sc.arenas[arena]
		arena ^= 1
		// Pre-grow so appends never reallocate: group headers sliced out of
		// the arena must stay valid for the rest of the round.
		if cap(a.ids) < total {
			a.ids = make([]NodeID, 0, total)
			a.ds = make([]float64, 0, total)
		}
		aIds, aDs := a.ids[:0], a.ds[:0]
		groups := (k + 7) / 8
		gIds := sc.rIds[:0]
		gDs := sc.rDs[:0]
		gShifts := sc.rShifts[:0]
		for g := 0; g < groups; g++ {
			lo := g * 8
			hi := lo + 8
			if hi > k {
				hi = k
			}
			if hi-lo == 1 {
				// A remainder group of one list passes through unmerged, shift
				// and all — no arena copy. The view it carries is an original
				// input (round 1) or a round-1 arena slice (round 2); the
				// ping-pong only revisits an arena on a third round, which the
				// k ≤ 512 cap makes unreachable.
				gIds = append(gIds, ids[lo])
				gDs = append(gDs, ds[lo])
				gShifts = append(gShifts, shifts[lo])
				continue
			}
			start := len(aIds)
			aIds, aDs = mergeUpTo8Into(aIds, aDs, ids[lo:hi], ds[lo:hi], shifts[lo:hi])
			gIds = append(gIds, aIds[start:len(aIds):len(aIds)])
			gDs = append(gDs, aDs[start:len(aDs):len(aDs)])
			gShifts = append(gShifts, 0)
		}
		a.ids, a.ds = aIds, aDs
		ids, ds, shifts = gIds, gDs, gShifts
		sc.rIds, sc.rDs, sc.rShifts = gIds, gDs, gShifts
		k = len(ids)
	}
	oIds, oDs = mergeUpTo8Into(oIds, oDs, ids, ds, shifts)
	for i := range sc.rIds {
		sc.rIds[i], sc.rDs[i] = nil, nil // arena views only, but drop them anyway
	}
	sc.rIds, sc.rDs, sc.rShifts = sc.rIds[:0], sc.rDs[:0], sc.rShifts[:0]
	return oIds, oDs
}

// heapMergeMinLists is the list count above which the cursor heap replaces
// the reduction rounds. The rounds cost at most two extra full passes over
// the N entries and beat the heap's per-element siftDown by a wide margin in
// the merge microbenchmarks (BenchmarkMergeKernel: ~4× at k = 40), but the
// singleton-passthrough trick is only sound through two rounds of arena
// ping-pong — so the ladder caps at 8·8·8 = 512 lists and hands anything
// larger to the heap.
const heapMergeMinLists = 512

// heapMergeInto is the large-k fallback: a 4-ary min-heap of (head ID, list)
// cursors over sc.heap/sc.pos, specialised to the SoA layout (no per-element
// callbacks). Equal IDs combine by minimum as they surface.
func heapMergeInto(sc *Scratch, oIds []NodeID, oDs []float64,
	ids [][]NodeID, ds [][]float64, shifts []float64) ([]NodeID, []float64) {
	pos := sc.pos[:0]
	heap := sc.heap[:0]
	for li, l := range ids {
		pos = append(pos, 0)
		if len(l) > 0 {
			heap = append(heap, mergeCursor{node: l[0], li: int32(li)})
		}
	}
	for i := (len(heap) - 2) / 4; i >= 0; i-- {
		siftDown(heap, i)
	}
	for len(heap) > 0 {
		cur := heap[0]
		li := cur.li
		p := pos[li]
		d := ds[li][p] + shifts[li]
		if n := len(oIds); n > 0 && oIds[n-1] == cur.node {
			if d < oDs[n-1] {
				oDs[n-1] = d
			}
		} else {
			oIds = append(oIds, cur.node)
			oDs = append(oDs, d)
		}
		pos[li] = p + 1
		if int(p+1) < len(ids[li]) {
			heap[0].node = ids[li][p+1]
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
	return oIds, oDs
}
