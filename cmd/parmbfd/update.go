package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"parmbf/internal/graph"
)

// maxUpdateEdits caps one /update batch. Edits are far more expensive than
// queries (each batch triggers a fixpoint repair), so the cap is much
// smaller than maxBatchPairs.
const maxUpdateEdits = 1 << 14

// updateEdit is one wire-format edge edit of a POST /update batch.
type updateEdit struct {
	// Op is "insert", "delete", or "reweight".
	Op string `json:"op"`
	U  int64  `json:"u"`
	V  int64  `json:"v"`
	// Weight is required for insert and reweight, ignored for delete.
	Weight float64 `json:"weight,omitempty"`
}

// updateRequest is the /update payload; the decode step adds its edits as
// graph edits.
type updateRequest struct {
	Edits []updateEdit `json:"edits"`
	edits []graph.Edit
}

// updateResponse reports one applied batch. Version is the serving-state
// version now visible to queries: any /dist or /batch admitted after this
// response was written sees at least this version. PatchedRows and
// RangeRebuilds show the tree patch (frt.UpdateStats): the LE lists re-read,
// and the re-assembled trees that had to re-read all of theirs.
type updateResponse struct {
	Version         int64 `json:"version"`
	Edges           int   `json:"edges"`
	AffectedTrees   int   `json:"affectedTrees"`
	RecomputedNodes int   `json:"recomputedNodes"`
	PatchedRows     int   `json:"patchedRows"`
	RangeRebuilds   int   `json:"rangeRebuilds"`
	DecreaseOnly    bool  `json:"decreaseOnly"`
	ElapsedMs       int64 `json:"elapsedMs"`
}

var editOps = map[string]graph.EditOp{"insert": graph.EditInsert, "delete": graph.EditDelete, "reweight": graph.EditReweight}

// decodeUpdate rejects the wire-level shape problems of an edit batch
// (unknown op, edit-count cap, endpoints outside [0, n)); semantic
// validation (duplicate edits, missing edges, weight domain) is
// graph.validateEdits' job and surfaces as bad_edit from serveUpdate.
func decodeUpdate(r *http.Request, n int) (any, *apiError) {
	q := &updateRequest{}
	if aerr := decodeJSON(r, q); aerr != nil {
		return nil, aerr
	}
	if len(q.Edits) == 0 {
		return nil, reject(http.StatusBadRequest, errBadEdit, "edits must be non-empty", nil)
	}
	if aerr := overCap("batch of %d edits exceeds cap %d", len(q.Edits), maxUpdateEdits); aerr != nil {
		return nil, aerr
	}
	q.edits = make([]graph.Edit, len(q.Edits))
	for i, e := range q.Edits {
		if !inRange(e.U, n) || !inRange(e.V, n) {
			return nil, reject(http.StatusBadRequest, errBadEdit,
				fmt.Sprintf("edit %d: endpoints (%d, %d) out of range", i, e.U, e.V),
				map[string]any{"index": i, "u": e.U, "v": e.V, "n": n})
		}
		op, ok := editOps[e.Op]
		if !ok {
			return nil, reject(http.StatusBadRequest, errBadEdit,
				fmt.Sprintf("edit %d: op must be insert, delete, or reweight", i),
				map[string]any{"index": i, "op": e.Op})
		}
		q.edits[i] = graph.Edit{Op: op, U: graph.Node(e.U), V: graph.Node(e.V), Weight: e.Weight}
	}
	return q, nil
}

// serveUpdate applies an edge edit batch to the live ensemble and swaps the
// serving snapshot atomically. Updates are serialised end to end (repair +
// reindex + swap) under updateMu; queries are never blocked — they keep
// answering from the previous snapshot until the single atomic swap, which
// is the bounded-staleness contract documented in the README. A failed
// batch (validation error, disconnecting deletion) changes nothing: the old
// snapshot keeps serving.
func (s *server) serveUpdate(_ context.Context, _ *serverState, req any) (any, *apiError) {
	if s.dyn == nil {
		return nil, reject(http.StatusConflict, errUpdateUnsupported,
			"server is static (built without -dynamic); live updates unavailable", nil)
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	t0 := time.Now()
	stats, err := s.dyn.ApplyEdits(req.(*updateRequest).edits)
	if err != nil {
		return nil, reject(http.StatusBadRequest, errBadEdit, err.Error(), nil)
	}
	old := s.state.Load()
	st := &serverState{n: old.n, m: s.dyn.Graph().M(), version: old.version + 1,
		ens: s.dyn.Ensemble(), g: s.dyn.Graph()}
	if st.idx, err = st.ens.Index(); err != nil {
		// Repair succeeded but indexing failed — the old snapshot keeps
		// serving; the dynamic state has already advanced, so surface this
		// loudly rather than silently diverging.
		return nil, reject(http.StatusInternalServerError, errInternal,
			"reindex after update failed: "+err.Error(), nil)
	}
	s.state.Store(st)
	s.updates.Add(1)
	return &updateResponse{
		Version:         st.version,
		Edges:           st.m,
		AffectedTrees:   stats.AffectedTrees,
		RecomputedNodes: stats.RecomputedNodes,
		PatchedRows:     stats.PatchedRows,
		RangeRebuilds:   stats.RangeRebuilds,
		DecreaseOnly:    stats.DecreaseOnly,
		ElapsedMs:       time.Since(t0).Milliseconds(),
	}, nil
}
