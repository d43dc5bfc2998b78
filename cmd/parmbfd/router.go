package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parmbf/internal/frt"
	"parmbf/internal/par"
)

// workerRef is one upstream replica. healthy is advisory routing state, not
// correctness state: an unhealthy worker is merely tried last, and any
// successful response marks it healthy again.
type workerRef struct {
	url      string
	healthy  atomic.Bool
	served   atomic.Int64 // shard requests answered
	failures atomic.Int64 // attempts that errored
}

// router shards the ensemble's K trees across a fleet of workers that each
// hold the full snapshot. Every /batch is decomposed into per-shard
// "pertree" subqueries, fanned out under a shared in-flight limiter, retried
// on surviving replicas when a worker dies or hangs, and merged with exactly
// the fold OracleIndex applies — so the fleet's answers are bitwise those of
// one big server. Because every worker can serve every shard, failover needs
// no data movement: a shard is just re-asked elsewhere.
type router struct {
	hc      *http.Client
	workers []*workerRef
	n, k    int
	shards  [][2]int // shards[i] is worker i's primary tree range [lo, hi)

	attemptTimeout time.Duration
	limiter        *par.Limiter
	started        time.Time

	queries   atomic.Int64
	batches   atomic.Int64
	failovers atomic.Int64 // shard attempts redirected off their primary
	next      atomic.Int64 // round-robin cursor of the one-worker fan

	cancelHealth context.CancelFunc
	healthDone   chan struct{}
}

// newRouter probes every worker's /stats (with a short retry window so a
// fleet started by one script needn't sequence itself), checks they agree on
// the snapshot shape, and starts the background health loop.
func newRouter(urls []string, inflight int, attemptTimeout, healthEvery time.Duration) (*router, error) {
	if attemptTimeout <= 0 {
		attemptTimeout = 5 * time.Second
	}
	rt := &router{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * len(urls),
			MaxIdleConnsPerHost: 8,
		}},
		attemptTimeout: attemptTimeout,
		limiter:        par.NewLimiter(inflight),
		started:        time.Now(),
	}
	for _, u := range urls {
		w := &workerRef{url: u}
		st, err := rt.probeStats(w)
		if err != nil {
			return nil, fmt.Errorf("worker %s unreachable: %w", u, err)
		}
		if rt.n == 0 {
			rt.n, rt.k = int(st.Nodes), int(st.Trees)
		} else if int(st.Nodes) != rt.n || int(st.Trees) != rt.k {
			return nil, fmt.Errorf("worker %s serves n=%d K=%d, fleet serves n=%d K=%d — mixed snapshots",
				u, st.Nodes, st.Trees, rt.n, rt.k)
		}
		w.healthy.Store(true)
		rt.workers = append(rt.workers, w)
	}
	if rt.n < 1 || rt.k < 1 {
		return nil, fmt.Errorf("fleet serves an empty ensemble (n=%d, K=%d)", rt.n, rt.k)
	}
	rt.shards = shardTrees(rt.k, len(rt.workers))

	hctx, cancel := context.WithCancel(context.Background())
	rt.cancelHealth = cancel
	rt.healthDone = make(chan struct{})
	go rt.healthLoop(hctx, healthEvery)
	return rt, nil
}

// probeStats fetches one worker's /stats, retrying briefly — at startup the
// fleet may still be binding its listeners.
func (rt *router) probeStats(w *workerRef) (st *statsResponse, err error) {
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), rt.attemptTimeout)
		st, err = fetchStats(ctx, rt.hc, w.url)
		cancel()
		if err == nil {
			return st, nil
		}
	}
	return nil, err
}

// shardTrees splits K trees into w contiguous ranges, spreading the
// remainder over the first shards so sizes differ by at most one. With more
// workers than trees the surplus workers get empty primary shards and act as
// pure failover spares.
func shardTrees(k, w int) [][2]int {
	shards := make([][2]int, w)
	base, extra := k/w, k%w
	for i := range shards {
		shards[i] = [2]int{i*base + min(i, extra), (i+1)*base + min(i+1, extra)}
	}
	return shards
}

func (rt *router) Close() {
	rt.cancelHealth()
	<-rt.healthDone
	rt.hc.CloseIdleConnections()
}

func (rt *router) healthLoop(ctx context.Context, every time.Duration) {
	defer close(rt.healthDone)
	if every <= 0 {
		every = 2 * time.Second
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, w := range rt.workers {
				hctx, cancel := context.WithTimeout(ctx, rt.attemptTimeout)
				status, _, err := call(hctx, rt.hc, http.MethodGet, w.url+"/healthz", nil)
				cancel()
				w.healthy.Store(err == nil && status == http.StatusOK)
			}
		}
	}
}

func (rt *router) healthyCount() int {
	c := 0
	for _, w := range rt.workers {
		if w.healthy.Load() {
			c++
		}
	}
	return c
}

func (rt *router) mux() *http.ServeMux { return newMux(nil, rt) }

// fanHealthz reports fleet health: ok with every replica up, degraded
// (still 200 — the router is serving) with some down, 503 with none.
func (rt *router) fanHealthz(context.Context, any) (any, *apiError) {
	type workerHealth struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
	}
	ws := make([]workerHealth, len(rt.workers))
	for i, wk := range rt.workers {
		ws[i] = workerHealth{URL: wk.url, Healthy: wk.healthy.Load()}
	}
	healthy := rt.healthyCount()
	status, code := "ok", http.StatusOK
	switch {
	case healthy == 0:
		status, code = "down", http.StatusServiceUnavailable
	case healthy < len(rt.workers):
		status = "degraded"
	}
	return &reply{status: code, body: wire(map[string]any{"status": status, "workers": ws})}, nil
}

func (rt *router) fanStats(context.Context, any) (any, *apiError) {
	type workerStats struct {
		URL      string `json:"url"`
		Healthy  bool   `json:"healthy"`
		Served   int64  `json:"served"`
		Failures int64  `json:"failures"`
	}
	ws := make([]workerStats, len(rt.workers))
	for i, wk := range rt.workers {
		ws[i] = workerStats{URL: wk.url, Healthy: wk.healthy.Load(),
			Served: wk.served.Load(), Failures: wk.failures.Load()}
	}
	return map[string]any{
		"mode":           "router",
		"nodes":          rt.n,
		"trees":          rt.k,
		"workers":        ws,
		"healthyWorkers": rt.healthyCount(),
		"shards":         rt.shards,
		"queries":        rt.queries.Load(),
		"batches":        rt.batches.Load(),
		"failovers":      rt.failovers.Load(),
		"inflight":       rt.limiter.InFlight(),
		"inflightCap":    rt.limiter.Cap(),
		"uptimeMs":       time.Since(rt.started).Milliseconds(),
	}, nil
}

// reply is an answer with its own status and an encoded JSON body: a
// worker's answer relayed verbatim — also as the error of a fan-out a worker
// rejected — or the router's /healthz.
type reply struct {
	status int
	body   []byte
}

func (r *reply) MarshalJSON() ([]byte, error) { return r.body, nil }
func (r *reply) Error() string                { return fmt.Sprintf("worker answered %d", r.status) }

// upstreamFailure answers a fan-out that failed: a worker's own rejection is
// relayed, anything else is a 502.
func upstreamFailure(err error) (any, *apiError) {
	var rp *reply
	if errors.As(err, &rp) {
		return rp, nil
	}
	return nil, reject(http.StatusBadGateway, errUpstreamUnavailable, err.Error(), nil)
}

// wire encodes a value decoded from JSON, or built from such values, for a
// worker or a reply; such values always encode, so the error is impossible.
func wire(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

// fanDeadline bounds one fan-out: every shard may in the worst case try
// every worker sequentially.
func (rt *router) fanDeadline() time.Duration {
	return rt.attemptTimeout*time.Duration(len(rt.workers)) + rt.attemptTimeout/2
}

// fanShards is the per-shard fan of /batch and /kmedian: it runs
// fetch(ctx, i, lo, hi) for every non-empty shard i = trees [lo, hi)
// concurrently under the fan-out deadline. The first error cancels the
// other shards and is returned.
func (rt *router) fanShards(ctx context.Context, fetch func(ctx context.Context, i, lo, hi int) error) error {
	ctx, cancel := context.WithTimeout(ctx, rt.fanDeadline())
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i, sh := range rt.shards {
		if sh[0] == sh[1] {
			continue // spare worker, no primary shard
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fetch(ctx, i, sh[0], sh[1]); err != nil {
				once.Do(func() { first = err; cancel() })
			}
		}()
	}
	wg.Wait()
	return first
}

// fanBatch asks each non-empty shard for its per-tree distances (retrying on
// other replicas), reassembles every pair's full K-vector in ascending tree
// order, and folds it exactly as OracleIndex does — strict-< for min, full
// sort for median — so the merged answers are bitwise identical to a single
// process evaluating the whole ensemble. An answer counts only if it is a
// 200 with exactly len(pairs)·(hi−lo) distances.
func (rt *router) fanBatch(ctx context.Context, req any) (any, *apiError) {
	q := req.(*batchRequest)
	if q.Stat != "" && q.Stat != "min" && q.Stat != "median" {
		// pertree is the worker-facing protocol, not a router stat: the
		// router exists to hide shard reassembly from clients.
		return nil, reject(http.StatusBadRequest, errBadStat,
			"stat must be min or median", map[string]any{"stat": q.Stat})
	}
	blocks := make([][]float64, len(rt.shards))
	err := rt.fanShards(ctx, func(ctx context.Context, i, lo, hi int) error {
		body := wire(batchRequest{Pairs: q.Pairs, Stat: "pertree", Trees: &[2]int{lo, hi}})
		_, _, err := rt.fetch(ctx, i, "/batch", body, func(status int, resp []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("POST /batch: %w", answerError(status, resp))
			}
			var br batchResponse
			if err := json.Unmarshal(resp, &br); err != nil {
				return err
			}
			if want := len(q.Pairs) * (hi - lo); len(br.Dists) != want {
				return fmt.Errorf("shard answer has %d dists, want %d", len(br.Dists), want)
			}
			blocks[i] = br.Dists
			return nil
		})
		if err != nil {
			return fmt.Errorf("shard [%d, %d): %w", lo, hi, err)
		}
		return nil
	})
	if err != nil {
		return upstreamFailure(err)
	}
	resp := batchResponses.Get().(*batchResponse)
	out, ds := slices.Grow(resp.Dists[:0], len(q.Pairs))[:len(q.Pairs)], make([]float64, rt.k)
	for i := range out {
		t := 0
		for s, sh := range rt.shards {
			w := sh[1] - sh[0]
			t += copy(ds[t:], blocks[s][i*w:(i+1)*w])
		}
		if q.Stat == "median" {
			out[i] = frt.MedianOf(ds)
			continue
		}
		out[i] = ds[0]
		for _, d := range ds[1:] {
			if d < out[i] {
				out[i] = d
			}
		}
	}
	resp.Dists = out
	return q.answer(resp), nil
}

// roundRobin is the fan of /buyatbulk and /route, which build on state that
// is not tree-separable (one flow accumulation, one shared next-hop table):
// each request goes whole to one worker, starting at the next one in turn
// and failing over across replicas like a shard fetch. The worker's answer —
// success or structured rejection — is relayed verbatim.
func roundRobin(path string) func(*router, context.Context, any) (any, *apiError) {
	return func(rt *router, ctx context.Context, req any) (any, *apiError) {
		ctx, cancel := context.WithTimeout(ctx, rt.fanDeadline())
		defer cancel()
		primary := int((rt.next.Add(1) - 1) % int64(len(rt.workers)))
		status, resp, err := rt.fetch(ctx, primary, path, wire(req), nil)
		if err != nil {
			return upstreamFailure(err)
		}
		return &reply{status: status, body: resp}, nil
	}
}

// fanUpdate forwards an edit batch to every worker replica — each worker
// holds the full ensemble, so all of them must apply every update. The
// forwards run concurrently; the response reports each worker's resulting
// version. When every worker refuses the batch with the same 4xx status and
// code, that refusal is relayed with the per-worker outcomes; any other
// failure yields 502 with them, so the operator can see which replicas
// diverged (a replica that missed an update must be restarted before it
// serves again — the router's health probes don't track versions).
func (rt *router) fanUpdate(ctx context.Context, req any) (any, *apiError) {
	// Updates run a repair and a reindex upstream — give them far more room
	// than one query attempt.
	ctx, cancel := context.WithTimeout(ctx, max(6*rt.attemptTimeout, 30*time.Second))
	defer cancel()
	type workerUpdate struct {
		URL     string `json:"url"`
		Version int64  `json:"version,omitempty"`
		Error   string `json:"error,omitempty"`
	}
	body := wire(req)
	results := make([]workerUpdate, len(rt.workers))
	refusals := make([]apiError, len(rt.workers)) // each worker's 4xx envelope, if it sent one
	var failed atomic.Int64
	var wg sync.WaitGroup
	for i, wk := range rt.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i].URL = wk.url
			status, resp, err := call(ctx, rt.hc, http.MethodPost, wk.url+"/update", body)
			var ur updateResponse
			if err == nil && status != http.StatusOK {
				var er errorResponse
				if status >= 400 && status < 500 && json.Unmarshal(resp, &er) == nil {
					refusals[i] = er.Error
					refusals[i].status = status
				}
				err = fmt.Errorf("POST /update: %w", answerError(status, resp))
			} else if err == nil {
				err = json.Unmarshal(resp, &ur)
			}
			if err != nil {
				results[i].Error = err.Error()
				failed.Add(1)
				return
			}
			results[i].Version = ur.Version
		}()
	}
	wg.Wait()
	if f := failed.Load(); f > 0 {
		// A batch every worker refuses alike (a missing edge, a
		// disconnecting delete) is the client's error, not the fleet's:
		// relay it. Any other mix of answers is a 502.
		r := refusals[0]
		unanimous := r.Code != ""
		for _, o := range refusals[1:] {
			unanimous = unanimous && o.status == r.status && o.Code == r.Code
		}
		if unanimous {
			return nil, reject(r.status, r.Code,
				fmt.Sprintf("all %d workers refused the update: %s", len(rt.workers), r.Message),
				map[string]any{"workers": results})
		}
		return nil, reject(http.StatusBadGateway, errUpstreamUnavailable,
			fmt.Sprintf("%d of %d workers failed to apply the update", f, len(rt.workers)),
			map[string]any{"workers": results})
	}
	return map[string]any{"workers": results}, nil
}

// fetch posts body to path on the candidate workers of primary — primary
// replica first, then healthy replicas, then anything still standing — and
// returns the first answer accept takes (nil accept takes any HTTP answer).
// Each attempt runs under the per-attempt timeout and the shared in-flight
// limiter, so a hung worker costs one timeout — not the request — and a
// burst of retries cannot stampede the fleet. A transport failure or a
// rejected answer marks the worker unhealthy and fails over.
func (rt *router) fetch(ctx context.Context, primary int, path string, body []byte, accept func(status int, resp []byte) error) (int, []byte, error) {
	var lastErr error
	for attempt, wi := range rt.candidates(primary) {
		w := rt.workers[wi]
		if err := rt.limiter.Acquire(ctx); err != nil {
			return 0, nil, err
		}
		actx, cancel := context.WithTimeout(ctx, rt.attemptTimeout)
		status, resp, err := call(actx, rt.hc, http.MethodPost, w.url+path, body)
		cancel()
		rt.limiter.Release()
		if err == nil && accept != nil {
			err = accept(status, resp)
		}
		if err == nil {
			w.healthy.Store(true)
			w.served.Add(1)
			if attempt > 0 {
				rt.failovers.Add(1)
			}
			return status, resp, nil
		}
		w.failures.Add(1)
		w.healthy.Store(false)
		lastErr = fmt.Errorf("worker %s: %w", w.url, err)
		if ctx.Err() != nil {
			return 0, nil, lastErr
		}
	}
	return 0, nil, lastErr
}

// candidates orders worker indices for one shard: its primary, then the
// currently healthy replicas, then the rest — a dead replica is only asked
// once everything believed alive has failed.
func (rt *router) candidates(primary int) []int {
	order := append(make([]int, 0, len(rt.workers)), primary)
	for _, healthy := range []bool{true, false} {
		for i, w := range rt.workers {
			if i != primary && w.healthy.Load() == healthy {
				order = append(order, i)
			}
		}
	}
	return order
}
