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
// once, and the module merges the sorted entry lists into scratch, applies
// the filter there, and allocates only the result.
//
// Implementing Aggregator is optional. The engine (mbf.Runner) type-asserts
// for it and falls back to the generic Add/SMul fold, so Definition 2.11
// semantics are defined solely by the Semimodule laws; Aggregate must be
// extensionally equal to the filtered fold (the differential tests in
// internal/mbf pin this on random graphs for every module below). A module
// implements it only where the merge measurably beats the fold: DistMap
// (every oracle, LE-list, source-detection and routing-table iteration;
// StaircaseModule fuses the LE projection into the merge for rank-keyed
// lists) and the two scalar algebras.

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
	// The filter is pure (see Filter) and may be handed an intermediate in
	// sc. The result never aliases self, any term, or sc — the caller owns
	// it exclusively. terms and sc are caller-owned scratch, reused across
	// calls; Aggregate must not retain references to either.
	Aggregate(sc *Scratch, self M, terms []Term[S, M], filter Filter[M]) M
}

// Scratch holds the reusable buffers of Aggregate: the list headers and
// reduction arenas of the SoA distance-map kernel and the per-list cursors
// of the fused staircase pass (distmerge.go). A zero
// Scratch is ready to use; engines keep one per worker (mbf.Runner recycles
// them through a sync.Pool) so steady-state aggregation allocates nothing
// beyond the merged result.
type Scratch struct {
	// SoA distance-map kernel state: per-list ID/distance headers and
	// shifts, the reduction-round group headers, and the two ping-pong
	// arenas.
	shifts  []float64
	dIds    [][]NodeID
	dDs     [][]float64
	rIds    [][]NodeID
	rDs     [][]float64
	rShifts []float64
	arenas  [2]mergeArena
	// out is the scratch-owned merge output a filtered Aggregate hands its
	// filter, and the output of the fused staircase pass.
	out mergeArena
	// The per-list slots of the fused staircase pass (staircaseInto).
	slot, pos []int32
	head      []NodeID
	val       []float64
}

// mergeArena is one reduction-round output buffer of the SoA kernel.
type mergeArena struct {
	ids []NodeID
	ds  []float64
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
	}
}

// growStair pre-sizes the per-list cursors of StaircaseModule's fused pass
// for k lists.
func (sc *Scratch) growStair(k int) {
	if len(sc.pos) < k {
		sc.slot = make([]int32, k)
		sc.pos = make([]int32, k)
		sc.head = make([]NodeID, k)
		sc.val = make([]float64, k)
	}
}
