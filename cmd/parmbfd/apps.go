package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"parmbf/internal/apps/buyatbulk"
	"parmbf/internal/apps/kmedian"
	"parmbf/internal/apps/routing"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// This file is the application-scenario serving surface: POST /kmedian,
// /buyatbulk, and /route run the three §9–10 applications against the
// server's live ensemble — the same trees and oracle index the distance
// endpoints answer from, injected through scenario.Options so nothing is
// resampled per request. The endpoints need the embedded graph itself, so a
// snapshot-loaded server (which retains only the trees) answers 409
// scenario_unavailable.

// maxScenarioDemands caps one /buyatbulk demand list; like /update, a
// scenario run costs a fixpoint, so the cap is far below maxBatchPairs.
const maxScenarioDemands = 1 << 14

// maxScenarioCables caps the /buyatbulk cable catalogue — every cable type
// is scanned per loaded edge.
const maxScenarioCables = 64

// maxRoutePairs caps one /route batch: every answer carries a full path, so
// response size — not compute — is the binding constraint.
const maxRoutePairs = 1 << 10

// kmedianRequest selects k centers. Seed drives candidate sampling (fixed
// seeds give reproducible answers); FirstTree/Trees restrict the per-tree
// loop — the router's sharding hook, 0/0 meaning "all trees".
type kmedianRequest struct {
	K         int    `json:"k"`
	Seed      uint64 `json:"seed"`
	FirstTree int    `json:"firstTree"`
	Trees     int    `json:"trees"`
}

type kmedianResponse struct {
	Centers    []int64 `json:"centers"`
	Cost       float64 `json:"cost"`
	Candidates int     `json:"candidates"`
}

func decodeKMedian(r *http.Request, n int) (any, *apiError) {
	q := &kmedianRequest{}
	if aerr := decodeJSON(r, q); aerr != nil {
		return nil, aerr
	}
	if q.K < 1 || q.K > n {
		return nil, reject(http.StatusBadRequest, errBadScenario,
			fmt.Sprintf("k must be in [1, %d]", n), map[string]any{"k": q.K, "n": n})
	}
	return q, nil
}

// needGraph is the 409 of a scenario request to a server that holds no
// graph (one loaded from a snapshot), or nil.
func needGraph(st *serverState) *apiError {
	if st.g != nil {
		return nil
	}
	return reject(http.StatusConflict, errScenarioUnavailable,
		"server was loaded from a snapshot and holds no graph; application scenarios need a server built with -in or -gen", nil)
}

func (s *server) serveKMedian(_ context.Context, st *serverState, req any) (any, *apiError) {
	if aerr := needGraph(st); aerr != nil {
		return nil, aerr
	}
	q := req.(*kmedianRequest)
	res, err := kmedian.Solve(st.g, q.K, kmedian.Options{
		RNG:       par.NewRNG(q.Seed),
		Ensemble:  st.ens,
		FirstTree: q.FirstTree,
		Trees:     q.Trees,
	})
	if err != nil {
		return nil, reject(http.StatusBadRequest, errBadScenario, err.Error(), nil)
	}
	return &kmedianResponse{Centers: nodesToWire(res.Centers), Cost: res.Cost, Candidates: len(res.Candidates)}, nil
}

// wireDemand and wireCable are the /buyatbulk wire shapes.
type wireDemand struct {
	S      int64   `json:"s"`
	T      int64   `json:"t"`
	Amount float64 `json:"amount"`
}

type wireCable struct {
	Capacity float64 `json:"capacity"`
	Cost     float64 `json:"cost"`
}

// buyAtBulkRequest is the /buyatbulk payload; the decode step adds its
// demands and cables as solver input.
type buyAtBulkRequest struct {
	Demands   []wireDemand `json:"demands"`
	Cables    []wireCable  `json:"cables"`
	FirstTree int          `json:"firstTree"`
	Trees     int          `json:"trees"`
	demands   []buyatbulk.Demand
	cables    []buyatbulk.CableType
}

type wirePurchase struct {
	U     int64 `json:"u"`
	V     int64 `json:"v"`
	Cable int   `json:"cable"`
	Count int   `json:"count"`
}

type buyAtBulkResponse struct {
	Purchases []wirePurchase `json:"purchases"`
	Cost      float64        `json:"cost"`
}

func decodeBuyAtBulk(r *http.Request, n int) (any, *apiError) {
	q := &buyAtBulkRequest{}
	if aerr := decodeJSON(r, q); aerr != nil {
		return nil, aerr
	}
	if aerr := overCap("demand list of %d exceeds cap %d", len(q.Demands), maxScenarioDemands); aerr != nil {
		return nil, aerr
	}
	if aerr := overCap("cable catalogue of %d exceeds cap %d", len(q.Cables), maxScenarioCables); aerr != nil {
		return nil, aerr
	}
	q.demands = make([]buyatbulk.Demand, len(q.Demands))
	for i, d := range q.Demands {
		if !inRange(d.S, n) || !inRange(d.T, n) {
			return nil, reject(http.StatusBadRequest, errPairOutOfRange,
				fmt.Sprintf("demand %d = (%d, %d) out of range", i, d.S, d.T),
				map[string]any{"index": i, "n": n})
		}
		q.demands[i] = buyatbulk.Demand{S: graph.Node(d.S), T: graph.Node(d.T), Amount: d.Amount}
	}
	q.cables = make([]buyatbulk.CableType, len(q.Cables))
	for i, c := range q.Cables {
		q.cables[i] = buyatbulk.CableType{Capacity: c.Capacity, Cost: c.Cost}
	}
	return q, nil
}

func (s *server) serveBuyAtBulk(_ context.Context, st *serverState, req any) (any, *apiError) {
	q := req.(*buyAtBulkRequest)
	tables, aerr := s.routingTables(st)
	if aerr != nil {
		return nil, aerr
	}
	sol, err := buyatbulk.SolveOnTables(tables, q.demands, q.cables, buyatbulk.Options{
		FirstTree: q.FirstTree,
		Trees:     q.Trees,
	})
	if err != nil {
		return nil, reject(http.StatusBadRequest, errBadScenario, err.Error(), nil)
	}
	resp := &buyAtBulkResponse{Cost: sol.Cost, Purchases: make([]wirePurchase, len(sol.Purchases))}
	for i, p := range sol.Purchases {
		resp.Purchases[i] = wirePurchase{U: int64(p.U), V: int64(p.V), Cable: p.Cable, Count: p.Count}
	}
	return resp, nil
}

// routeRequest asks for oblivious routes; the decode step adds its pairs as
// graph nodes. The next-hop tables are built lazily on the first /route or
// /buyatbulk after a (re)start or /update and cached until the serving
// version moves.
type routeRequest struct {
	Pairs [][2]int64 `json:"pairs"`
	pairs []frt.Pair
}

type wireRoute struct {
	Path     []int64 `json:"path"`
	Length   float64 `json:"length"`
	Tree     int     `json:"tree"`
	TreeDist float64 `json:"treeDist"`
}

type routeResponse struct {
	Routes []wireRoute `json:"routes"`
}

func decodeRoute(r *http.Request, n int) (any, *apiError) {
	q := &routeRequest{}
	if aerr := decodeJSON(r, q); aerr != nil {
		return nil, aerr
	}
	var aerr *apiError
	q.pairs, aerr = nodePairs(q.Pairs, n, maxRoutePairs, "route batch of %d pairs exceeds cap %d")
	return q, aerr
}

func countRoute(req any) (int64, int64) { return int64(len(req.(*routeRequest).pairs)), 1 }

// routingTables returns the oblivious-routing tables for the snapshot st,
// building them on the first /route or /buyatbulk and rebuilding on the
// first one after every /update (the cache key is the serving-state
// version). /buyatbulk expands its loaded tree edges through the same
// tables, so neither endpoint runs a fixpoint on a warm cache.
func (s *server) routingTables(st *serverState) (*routing.Tables, *apiError) {
	if aerr := needGraph(st); aerr != nil {
		return nil, aerr
	}
	s.scenarioMu.Lock()
	defer s.scenarioMu.Unlock()
	if s.routeTables != nil && s.routeTablesAt == st.version {
		return s.routeTables, nil
	}
	rt, err := routing.Build(st.g, routing.Options{Ensemble: st.ens})
	if err != nil {
		return nil, reject(http.StatusInternalServerError, errBadScenario, "building routing tables: "+err.Error(), nil)
	}
	s.routeTables, s.routeTablesAt = rt, st.version
	return rt, nil
}

func (s *server) serveRoute(_ context.Context, st *serverState, req any) (any, *apiError) {
	tables, aerr := s.routingTables(st)
	if aerr != nil {
		return nil, aerr
	}
	routes, err := tables.RouteBatch(req.(*routeRequest).pairs)
	if err != nil {
		return nil, reject(http.StatusBadRequest, errBadScenario, err.Error(), nil)
	}
	resp := &routeResponse{Routes: make([]wireRoute, len(routes))}
	for i, rr := range routes {
		resp.Routes[i] = wireRoute{
			Path: nodesToWire(rr.Path), Length: rr.Length,
			Tree: rr.Tree, TreeDist: rr.TreeDist,
		}
	}
	return resp, nil
}

func nodesToWire(nodes []graph.Node) []int64 {
	out := make([]int64, len(nodes))
	for i, v := range nodes {
		out[i] = int64(v)
	}
	return out
}

// fanKMedian shards /kmedian, the one scenario that shards naturally per
// tree: every worker solves its primary tree range (the same
// FirstTree/Trees hook a standalone caller uses) and the router keeps the
// cheapest center set — the same best-of-K fold a single process runs,
// distributed. A worker's rejection (a snapshot-only worker's 409: every
// shard fails identically) is relayed.
func (rt *router) fanKMedian(ctx context.Context, req any) (any, *apiError) {
	q := req.(*kmedianRequest)
	if q.FirstTree != 0 || q.Trees != 0 {
		// Shard selection is the router's job; a client asking for a slice
		// would silently compose with the router's own sharding.
		return nil, reject(http.StatusBadRequest, errBadScenario,
			"firstTree/trees are worker-facing; the router shards per tree itself", nil)
	}
	plans := make([]kmedianResponse, len(rt.shards))
	err := rt.fanShards(ctx, func(ctx context.Context, i, lo, hi int) error {
		body := wire(kmedianRequest{K: q.K, Seed: q.Seed, FirstTree: lo, Trees: hi - lo})
		status, resp, err := rt.fetch(ctx, i, "/kmedian", body, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return &reply{status: status, body: resp}
		}
		if err := json.Unmarshal(resp, &plans[i]); err != nil {
			return fmt.Errorf("bad worker /kmedian response: %w", err)
		}
		return nil
	})
	if err != nil {
		return upstreamFailure(err)
	}
	// Folded in ascending tree order with the same strict comparison as
	// kmedian.Solve, so a cost tie keeps the lower tree's plan on both sides.
	best := -1
	for i, sh := range rt.shards {
		if sh[0] < sh[1] && (best < 0 || plans[i].Cost < plans[best].Cost) {
			best = i
		}
	}
	return &plans[best], nil
}
