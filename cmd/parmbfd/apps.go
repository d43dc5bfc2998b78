package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

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

// scenarioState loads the serving snapshot and rejects the request with a
// structured 409 when the server holds no graph (snapshot-loaded).
func (s *server) scenarioState(w http.ResponseWriter) (*serverState, bool) {
	st := s.state.Load()
	if st.g == nil {
		writeError(w, http.StatusConflict, errScenarioUnavailable,
			"server was loaded from a snapshot and holds no graph; application scenarios need a server built with -in or -gen", nil)
		return nil, false
	}
	return st, true
}

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

func (s *server) handleKMedian(w http.ResponseWriter, r *http.Request) {
	st, ok := s.scenarioState(w)
	if !ok {
		return
	}
	var req kmedianRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.K < 1 || req.K > st.n {
		writeError(w, http.StatusBadRequest, errBadScenario,
			fmt.Sprintf("k must be in [1, %d]", st.n), map[string]any{"k": req.K, "n": st.n})
		return
	}
	res, err := kmedian.Solve(st.g, req.K, kmedian.Options{
		RNG:       par.NewRNG(req.Seed),
		Ensemble:  st.ens,
		FirstTree: req.FirstTree,
		Trees:     req.Trees,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadScenario, err.Error(), nil)
		return
	}
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, kmedianResponse{
		Centers:    nodesToWire(res.Centers),
		Cost:       res.Cost,
		Candidates: len(res.Candidates),
	})
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

type buyAtBulkRequest struct {
	Demands   []wireDemand `json:"demands"`
	Cables    []wireCable  `json:"cables"`
	FirstTree int          `json:"firstTree"`
	Trees     int          `json:"trees"`
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

func (s *server) handleBuyAtBulk(w http.ResponseWriter, r *http.Request) {
	st, ok := s.scenarioState(w)
	if !ok {
		return
	}
	var req buyAtBulkRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Demands) > maxScenarioDemands {
		writeError(w, http.StatusRequestEntityTooLarge, errBatchTooLarge,
			fmt.Sprintf("demand list of %d exceeds cap %d", len(req.Demands), maxScenarioDemands),
			map[string]any{"max": maxScenarioDemands, "got": len(req.Demands)})
		return
	}
	if len(req.Cables) > maxScenarioCables {
		writeError(w, http.StatusRequestEntityTooLarge, errBatchTooLarge,
			fmt.Sprintf("cable catalogue of %d exceeds cap %d", len(req.Cables), maxScenarioCables),
			map[string]any{"max": maxScenarioCables, "got": len(req.Cables)})
		return
	}
	demands := make([]buyatbulk.Demand, len(req.Demands))
	for i, d := range req.Demands {
		if d.S < 0 || d.S >= int64(st.n) || d.T < 0 || d.T >= int64(st.n) {
			writeError(w, http.StatusBadRequest, errPairOutOfRange,
				fmt.Sprintf("demand %d = (%d, %d) out of range", i, d.S, d.T),
				map[string]any{"index": i, "n": st.n})
			return
		}
		demands[i] = buyatbulk.Demand{S: graph.Node(d.S), T: graph.Node(d.T), Amount: d.Amount}
	}
	cables := make([]buyatbulk.CableType, len(req.Cables))
	for i, c := range req.Cables {
		cables[i] = buyatbulk.CableType{Capacity: c.Capacity, Cost: c.Cost}
	}
	tables, err := s.routingTables(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errBadScenario,
			"building routing tables: "+err.Error(), nil)
		return
	}
	sol, err := buyatbulk.SolveOnTables(tables, demands, cables, buyatbulk.Options{
		FirstTree: req.FirstTree,
		Trees:     req.Trees,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadScenario, err.Error(), nil)
		return
	}
	resp := buyAtBulkResponse{Cost: sol.Cost, Purchases: make([]wirePurchase, len(sol.Purchases))}
	for i, p := range sol.Purchases {
		resp.Purchases[i] = wirePurchase{U: int64(p.U), V: int64(p.V), Cable: p.Cable, Count: p.Count}
	}
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// routeRequest asks for oblivious routes. The next-hop tables are built
// lazily on the first /route or /buyatbulk after a (re)start or /update and
// cached until the serving version moves.
type routeRequest struct {
	Pairs [][2]int64 `json:"pairs"`
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

// routingTables returns the oblivious-routing tables for the snapshot st,
// building them on the first /route or /buyatbulk and rebuilding on the
// first one after every /update (the cache key is the serving-state
// version). /buyatbulk expands its loaded tree edges through the same
// tables, so neither endpoint runs a fixpoint on a warm cache.
func (s *server) routingTables(st *serverState) (*routing.Tables, error) {
	s.scenarioMu.Lock()
	defer s.scenarioMu.Unlock()
	if s.routeTables != nil && s.routeTablesAt == st.version {
		return s.routeTables, nil
	}
	rt, err := routing.Build(st.g, routing.Options{Ensemble: st.ens})
	if err != nil {
		return nil, err
	}
	s.routeTables, s.routeTablesAt = rt, st.version
	return rt, nil
}

func (s *server) handleRoute(w http.ResponseWriter, r *http.Request) {
	st, ok := s.scenarioState(w)
	if !ok {
		return
	}
	var req routeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, errEmptyPairs, "pairs must be non-empty", nil)
		return
	}
	if len(req.Pairs) > maxRoutePairs {
		writeError(w, http.StatusRequestEntityTooLarge, errBatchTooLarge,
			fmt.Sprintf("route batch of %d pairs exceeds cap %d", len(req.Pairs), maxRoutePairs),
			map[string]any{"max": maxRoutePairs, "got": len(req.Pairs)})
		return
	}
	pairs := make([]frt.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		if p[0] < 0 || p[0] >= int64(st.n) || p[1] < 0 || p[1] >= int64(st.n) {
			writeError(w, http.StatusBadRequest, errPairOutOfRange,
				fmt.Sprintf("pair %d = [%d, %d] out of range", i, p[0], p[1]),
				map[string]any{"index": i, "pair": p, "n": st.n})
			return
		}
		pairs[i] = frt.Pair{U: graph.Node(p[0]), V: graph.Node(p[1])}
	}
	tables, err := s.routingTables(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errBadScenario,
			"building routing tables: "+err.Error(), nil)
		return
	}
	routes, err := tables.RouteBatch(pairs)
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadScenario, err.Error(), nil)
		return
	}
	resp := routeResponse{Routes: make([]wireRoute, len(routes))}
	for i, rr := range routes {
		resp.Routes[i] = wireRoute{
			Path: nodesToWire(rr.Path), Length: rr.Length,
			Tree: rr.Tree, TreeDist: rr.TreeDist,
		}
	}
	s.queries.Add(int64(len(pairs)))
	s.batches.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

func nodesToWire(nodes []graph.Node) []int64 {
	out := make([]int64, len(nodes))
	for i, v := range nodes {
		out[i] = int64(v)
	}
	return out
}

// ---- router-side scenario serving ----
//
// /kmedian is the one scenario that shards naturally per tree: every worker
// solves its primary tree range (the same FirstTree/Trees hook a standalone
// caller uses) and the router keeps the cheapest center set — the same
// best-of-K fold a single process runs, distributed. /buyatbulk and /route
// build on state that is not tree-separable (one flow accumulation, one
// shared next-hop table), so the router forwards them whole to one worker,
// failing over across replicas like a shard fetch.

func (rt *router) handleKMedian(w http.ResponseWriter, r *http.Request) {
	var req kmedianRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.K < 1 || req.K > rt.n {
		writeError(w, http.StatusBadRequest, errBadScenario,
			fmt.Sprintf("k must be in [1, %d]", rt.n), map[string]any{"k": req.K, "n": rt.n})
		return
	}
	if req.FirstTree != 0 || req.Trees != 0 {
		// Shard selection is the router's job; a client asking for a slice
		// would silently compose with the router's own sharding.
		writeError(w, http.StatusBadRequest, errBadScenario,
			"firstTree/trees are worker-facing; the router shards per tree itself", nil)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(),
		rt.attemptTimeout*time.Duration(len(rt.workers))+rt.attemptTimeout/2)
	defer cancel()

	type shardOutcome struct {
		status int
		body   []byte
		err    error
	}
	// One slot per shard, folded in ascending tree order below: with the
	// same strict comparison as kmedian.Solve, a cost tie keeps the lower
	// tree's plan on both sides.
	var wg sync.WaitGroup
	outcomes := make([]shardOutcome, len(rt.shards))
	for i, shard := range rt.shards {
		if shard[0] == shard[1] {
			continue
		}
		wg.Add(1)
		go func(primary, lo, hi int) {
			defer wg.Done()
			body, err := json.Marshal(kmedianRequest{K: req.K, Seed: req.Seed, FirstTree: lo, Trees: hi - lo})
			oc := &outcomes[primary]
			if err == nil {
				oc.status, oc.body, err = rt.fetchScenario(ctx, primary, "/kmedian", body)
			}
			oc.err = err
		}(i, shard[0], shard[1])
	}
	wg.Wait()
	var best *kmedianResponse
	for i, oc := range outcomes {
		if rt.shards[i][0] == rt.shards[i][1] {
			continue
		}
		if oc.err != nil {
			writeError(w, http.StatusBadGateway, errUpstreamUnavailable, oc.err.Error(), nil)
			return
		}
		if oc.status != http.StatusOK {
			// Semantic rejection (bad k, snapshot-only worker): every shard
			// fails identically, forward the first worker's structured error.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(oc.status)
			_, _ = w.Write(oc.body)
			return
		}
		var kr kmedianResponse
		if err := json.Unmarshal(oc.body, &kr); err != nil {
			writeError(w, http.StatusBadGateway, errUpstreamUnavailable,
				"bad worker /kmedian response: "+err.Error(), nil)
			return
		}
		if best == nil || kr.Cost < best.Cost {
			kr2 := kr
			best = &kr2
		}
	}
	if best == nil {
		writeError(w, http.StatusBadGateway, errUpstreamUnavailable, "no shard answered", nil)
		return
	}
	rt.queries.Add(1)
	rt.batches.Add(1)
	writeJSON(w, http.StatusOK, best)
}

func (rt *router) handleBuyAtBulk(w http.ResponseWriter, r *http.Request) {
	rt.proxyScenario(w, r, "/buyatbulk")
}

func (rt *router) handleRoute(w http.ResponseWriter, r *http.Request) {
	rt.proxyScenario(w, r, "/route")
}

// proxyScenario forwards one scenario request whole to a single worker,
// trying replicas in health order. Transport failures fail over; any HTTP
// response — success or structured rejection — is relayed verbatim.
func (rt *router) proxyScenario(w http.ResponseWriter, r *http.Request, path string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(),
		rt.attemptTimeout*time.Duration(len(rt.workers))+rt.attemptTimeout/2)
	defer cancel()
	// Spread scenario load round-robin over the fleet: each request starts at
	// a different primary.
	primary := int(rt.batches.Add(1)-1) % len(rt.workers)
	status, resp, err := rt.fetchScenario(ctx, primary, path, body)
	if err != nil {
		writeError(w, http.StatusBadGateway, errUpstreamUnavailable, err.Error(), nil)
		return
	}
	if status == http.StatusOK {
		rt.queries.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(resp)
}

// fetchScenario posts body to path on the shard's candidate workers in
// health order, returning the first HTTP response obtained. Like fetchShard,
// each attempt runs under the per-attempt timeout and the shared in-flight
// limiter; only transport errors fail over — a structured rejection is a
// response, not a reason to retry elsewhere.
func (rt *router) fetchScenario(ctx context.Context, primary int, path string, body []byte) (int, []byte, error) {
	var lastErr error
	for attempt, wi := range rt.candidates(primary) {
		wk := rt.workers[wi]
		if err := rt.limiter.Acquire(ctx); err != nil {
			return 0, nil, err
		}
		status, resp, err := rt.postScenario(ctx, wk, path, body)
		rt.limiter.Release()
		if err == nil {
			wk.healthy.Store(true)
			wk.served.Add(1)
			if attempt > 0 {
				rt.failovers.Add(1)
			}
			return status, resp, nil
		}
		wk.failures.Add(1)
		wk.healthy.Store(false)
		lastErr = fmt.Errorf("worker %s: %w", wk.url, err)
		if ctx.Err() != nil {
			return 0, nil, lastErr
		}
	}
	return 0, nil, lastErr
}

func (rt *router) postScenario(ctx context.Context, wk *workerRef, path string, body []byte) (int, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, rt.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, wk.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}
