package main

import (
	"encoding/json"
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

type updateRequest struct {
	Edits []updateEdit `json:"edits"`
}

// updateResponse reports one applied batch. Version is the serving-state
// version now visible to queries: any /dist or /batch admitted after this
// response was written sees at least this version.
type updateResponse struct {
	Version         int64 `json:"version"`
	Edges           int   `json:"edges"`
	AffectedTrees   int   `json:"affectedTrees"`
	RecomputedNodes int   `json:"recomputedNodes"`
	DecreaseOnly    bool  `json:"decreaseOnly"`
	ElapsedMs       int64 `json:"elapsedMs"`
}

// decodeUpdate parses a /update body into graph edits, writing the
// structured error itself on failure. Wire-level shape problems (unknown op,
// edit-count cap, endpoints outside [0, n)) are rejected here; semantic
// validation (duplicate edits, missing edges, weight domain) is
// graph.validateEdits' job and surfaces as bad_edit from the handler. The
// range check runs on the wire's int64 IDs, before the narrowing to
// graph.Node, so an ID such as 2^32 cannot wrap onto node 0.
func decodeUpdate(w http.ResponseWriter, r *http.Request, n int) ([]graph.Edit, bool) {
	var req updateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeDecodeError(w, err)
		return nil, false
	}
	if len(req.Edits) == 0 {
		writeError(w, http.StatusBadRequest, errBadEdit, "edits must be non-empty", nil)
		return nil, false
	}
	if len(req.Edits) > maxUpdateEdits {
		writeError(w, http.StatusRequestEntityTooLarge, errBatchTooLarge,
			fmt.Sprintf("batch of %d edits exceeds cap %d", len(req.Edits), maxUpdateEdits),
			map[string]any{"max": maxUpdateEdits, "got": len(req.Edits)})
		return nil, false
	}
	nn := int64(n)
	edits := make([]graph.Edit, len(req.Edits))
	for i, e := range req.Edits {
		if e.U < 0 || e.U >= nn || e.V < 0 || e.V >= nn {
			writeError(w, http.StatusBadRequest, errBadEdit,
				fmt.Sprintf("edit %d: endpoints (%d, %d) out of range", i, e.U, e.V),
				map[string]any{"index": i, "u": e.U, "v": e.V, "n": n})
			return nil, false
		}
		var op graph.EditOp
		switch e.Op {
		case "insert":
			op = graph.EditInsert
		case "delete":
			op = graph.EditDelete
		case "reweight":
			op = graph.EditReweight
		default:
			writeError(w, http.StatusBadRequest, errBadEdit,
				fmt.Sprintf("edit %d: op must be insert, delete, or reweight", i),
				map[string]any{"index": i, "op": e.Op})
			return nil, false
		}
		edits[i] = graph.Edit{Op: op, U: graph.Node(e.U), V: graph.Node(e.V), Weight: e.Weight}
	}
	return edits, true
}

// handleUpdate applies an edge edit batch to the live ensemble and swaps the
// serving snapshot atomically. Updates are serialised end to end (repair +
// reindex + swap) under updateMu; queries are never blocked — they keep
// answering from the previous snapshot until the single atomic swap, which
// is the bounded-staleness contract documented in the README. A failed
// batch (validation error, disconnecting deletion) changes nothing: the old
// snapshot keeps serving.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		writeError(w, http.StatusConflict, errUpdateUnsupported,
			"server is static (built without -dynamic); live updates unavailable", nil)
		return
	}
	edits, ok := decodeUpdate(w, r, s.state.Load().n)
	if !ok {
		return
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	t0 := time.Now()
	stats, err := s.dyn.ApplyEdits(edits)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadEdit, err.Error(), nil)
		return
	}
	old := s.state.Load()
	st := &serverState{n: old.n, m: s.dyn.Graph().M(), version: old.version + 1,
		ens: s.dyn.Ensemble(), g: s.dyn.Graph()}
	st.idx, err = st.ens.Index()
	if err != nil {
		// Repair succeeded but indexing failed — the old snapshot keeps
		// serving; the dynamic state has already advanced, so surface this
		// loudly rather than silently diverging.
		writeError(w, http.StatusInternalServerError, errUpdateUnsupported,
			"reindex after update failed: "+err.Error(), nil)
		return
	}
	s.state.Store(st)
	s.updates.Add(1)
	writeJSON(w, http.StatusOK, updateResponse{
		Version:         st.version,
		Edges:           st.m,
		AffectedTrees:   stats.AffectedTrees,
		RecomputedNodes: stats.RecomputedNodes,
		DecreaseOnly:    stats.DecreaseOnly,
		ElapsedMs:       time.Since(t0).Milliseconds(),
	})
}
