package graph

import (
	"fmt"
	"sort"

	"parmbf/internal/semiring"
)

// EditOp is the kind of one edge edit.
type EditOp uint8

const (
	// EditInsert adds a new edge {U, V} with the given weight.
	EditInsert EditOp = iota
	// EditDelete removes the existing edge {U, V} (Weight is ignored).
	EditDelete
	// EditReweight changes the weight of the existing edge {U, V}.
	EditReweight
)

func (op EditOp) String() string {
	switch op {
	case EditInsert:
		return "insert"
	case EditDelete:
		return "delete"
	case EditReweight:
		return "reweight"
	default:
		return fmt.Sprintf("EditOp(%d)", uint8(op))
	}
}

// Edit is one edge edit of a batch. Endpoints are unordered ({U, V} and
// {V, U} name the same edge).
type Edit struct {
	Op     EditOp
	U, V   Node
	Weight float64
}

// AppliedEdit is one validated edit together with the weight the edge had
// before the batch (∞ for inserts) — what an incremental repair needs to
// decide which entries the old fixpoint derived through the edited edge.
type AppliedEdit struct {
	Edit
	OldWeight float64
}

// EditSummary describes a validated, applied edit batch.
type EditSummary struct {
	// Applied lists every edit with its pre-batch weight, in input order.
	Applied []AppliedEdit
	// Touched is the sorted deduplicated set of edit endpoints — the seed
	// frontier of an incremental fixpoint repair.
	Touched []Node
	// Inserts, Deletes, and Reweights count the edits by kind.
	Inserts, Deletes, Reweights int
	// DecreaseOnly reports whether every edit weakly decreases a weight
	// (inserts count: ∞ → w). Decrease-only batches admit the pure delta
	// repair path; deletions and weight increases are non-monotone and
	// force cone invalidation (see internal/frt).
	DecreaseOnly bool
}

// pairKey packs an unordered node pair into one comparable key.
func pairKey(u, v Node) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// validateEdits checks an edit batch against g without modifying anything:
// endpoints in range, no loops, finite positive weights for insert/reweight,
// no two edits naming the same edge, inserts only of absent edges,
// deletes/reweights only of present ones. It returns the applied-edit records
// (with old weights) and the summary, or the first violation as an error —
// the update API must reject hostile input, not panic like Builder.Add.
func validateEdits(g *Graph, edits []Edit) (*EditSummary, error) {
	n := g.N()
	sum := &EditSummary{
		Applied:      make([]AppliedEdit, 0, len(edits)),
		DecreaseOnly: true,
	}
	seen := make(map[uint64]struct{}, len(edits))
	touched := make(map[Node]struct{}, 2*len(edits))
	for i, e := range edits {
		if int(e.U) < 0 || int(e.U) >= n || int(e.V) < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edit %d: endpoint of {%d,%d} out of range n=%d", i, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: edit %d: loop at node %d", i, e.U)
		}
		switch e.Op {
		case EditInsert, EditReweight:
			// !(w > 0) also rejects NaN, mirroring Builder.Add.
			if !(e.Weight > 0) || semiring.IsInf(e.Weight) {
				return nil, fmt.Errorf("graph: edit %d: invalid weight %v for %v {%d,%d}", i, e.Weight, e.Op, e.U, e.V)
			}
		case EditDelete:
		default:
			return nil, fmt.Errorf("graph: edit %d: unknown op %v", i, e.Op)
		}
		key := pairKey(e.U, e.V)
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("graph: edit %d: duplicate edit of edge {%d,%d}", i, e.U, e.V)
		}
		seen[key] = struct{}{}
		old, exists := g.HasEdge(e.U, e.V)
		switch e.Op {
		case EditInsert:
			if exists {
				return nil, fmt.Errorf("graph: edit %d: insert of existing edge {%d,%d}", i, e.U, e.V)
			}
			old = semiring.Inf
			sum.Inserts++
		case EditDelete:
			if !exists {
				return nil, fmt.Errorf("graph: edit %d: delete of missing edge {%d,%d}", i, e.U, e.V)
			}
			sum.Deletes++
			sum.DecreaseOnly = false
		case EditReweight:
			if !exists {
				return nil, fmt.Errorf("graph: edit %d: reweight of missing edge {%d,%d}", i, e.U, e.V)
			}
			sum.Reweights++
			if e.Weight > old {
				sum.DecreaseOnly = false
			}
		}
		sum.Applied = append(sum.Applied, AppliedEdit{Edit: e, OldWeight: old})
		touched[e.U] = struct{}{}
		touched[e.V] = struct{}{}
	}
	sum.Touched = make([]Node, 0, len(touched))
	for v := range touched {
		sum.Touched = append(sum.Touched, v)
	}
	sort.Slice(sum.Touched, func(a, b int) bool { return sum.Touched[a] < sum.Touched[b] })
	return sum, nil
}

// ApplyEdits applies a batch of edge edits to g and returns the edited graph
// together with a summary of what changed. g itself is never modified — the
// result is a fresh immutable Graph, so readers of g are undisturbed (the
// atomic-swap idiom of the serving tier).
//
// The whole batch is validated before anything is built; on error the batch
// is rejected wholesale and g is returned unchanged semantics-wise (the first
// return value is nil). An empty batch returns g itself.
//
// A reweight-only batch takes a copy-on-write fast path: only the flat arc
// block is cloned (both directed halves of each edited edge are patched by
// binary search) and the row-offset array is shared with g — O(m) copying
// with no re-sort, no Builder, and no re-dedup. Mixed batches rebuild through
// the extend-and-refreeze Builder idiom in O(n + m + k).
func ApplyEdits(g *Graph, edits []Edit) (*Graph, *EditSummary, error) {
	sum, err := validateEdits(g, edits)
	if err != nil {
		return nil, nil, err
	}
	if len(sum.Applied) == 0 {
		return g, sum, nil
	}
	if sum.Reweights == len(sum.Applied) {
		return reweightCOW(g, sum), sum, nil
	}
	return rebuildWithEdits(g, sum), sum, nil
}

// reweightCOW is the reweight-only fast path: clone the arc block, patch the
// edited arcs in place, share everything else. The CSR layout (row offsets,
// per-row target order) depends only on the edge set, which a reweight batch
// leaves unchanged, so the clone is structurally identical to g.
func reweightCOW(g *Graph, sum *EditSummary) *Graph {
	arcs := append([]Arc(nil), g.arcs...)
	h := &Graph{rowStart: g.rowStart, arcs: arcs, m: g.m}
	patch := func(u, v Node, w float64) {
		row := arcs[g.rowStart[u]:g.rowStart[u+1]]
		i := sort.Search(len(row), func(i int) bool { return row[i].To >= v })
		row[i].Weight = w // validated: the edge exists
	}
	for _, e := range sum.Applied {
		patch(e.U, e.V, e.Weight)
		patch(e.V, e.U, e.Weight)
	}
	return h
}

// rebuildWithEdits rebuilds the edge list with the batch applied and
// refreezes — the general path for batches that insert or delete edges.
func rebuildWithEdits(g *Graph, sum *EditSummary) *Graph {
	byPair := make(map[uint64]*AppliedEdit, len(sum.Applied))
	for i := range sum.Applied {
		e := &sum.Applied[i]
		byPair[pairKey(e.U, e.V)] = e
	}
	b := NewBuilder(g.N())
	b.edges = make([]Edge, 0, g.m+sum.Inserts-sum.Deletes)
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Neighbors(Node(u)) {
			if Node(u) >= a.To {
				continue
			}
			w := a.Weight
			if e, ok := byPair[pairKey(Node(u), a.To)]; ok {
				if e.Op == EditDelete {
					continue
				}
				if e.Op == EditReweight {
					w = e.Weight
				}
			}
			b.edges = append(b.edges, Edge{U: Node(u), V: a.To, Weight: w})
		}
	}
	for _, e := range sum.Applied {
		if e.Op == EditInsert {
			b.Add(e.U, e.V, e.Weight)
		}
	}
	return b.Freeze()
}
