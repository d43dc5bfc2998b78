package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
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

	bufs sync.Pool // *[]float64 merge buffers

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
	rt.bufs.New = func() any { b := make([]float64, 0, 1024); return &b }

	hctx, cancel := context.WithCancel(context.Background())
	rt.cancelHealth = cancel
	rt.healthDone = make(chan struct{})
	go rt.healthLoop(hctx, healthEvery)
	return rt, nil
}

// probeStats fetches one worker's /stats, retrying briefly — at startup the
// fleet may still be binding its listeners.
func (rt *router) probeStats(w *workerRef) (*statsResponse, error) {
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), rt.attemptTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/stats", nil)
		if err != nil {
			cancel()
			return nil, err
		}
		resp, err := rt.hc.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		var st statsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		return &st, nil
	}
	return nil, lastErr
}

// shardTrees splits K trees into w contiguous ranges, spreading the
// remainder over the first shards so sizes differ by at most one. With more
// workers than trees the surplus workers get empty primary shards and act as
// pure failover spares.
func shardTrees(k, w int) [][2]int {
	shards := make([][2]int, w)
	base, extra := k/w, k%w
	cur := 0
	for i := range shards {
		size := base
		if i < extra {
			size++
		}
		shards[i] = [2]int{cur, cur + size}
		cur += size
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
				req, err := http.NewRequestWithContext(hctx, http.MethodGet, w.url+"/healthz", nil)
				if err == nil {
					var resp *http.Response
					resp, err = rt.hc.Do(req)
					if err == nil {
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							err = fmt.Errorf("healthz: %s", resp.Status)
						}
					}
				}
				cancel()
				w.healthy.Store(err == nil)
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

func (rt *router) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /dist", rt.handleDist)
	mux.HandleFunc("POST /batch", rt.handleBatch)
	mux.HandleFunc("POST /update", rt.handleUpdate)
	mux.HandleFunc("POST /kmedian", rt.handleKMedian)
	mux.HandleFunc("POST /buyatbulk", rt.handleBuyAtBulk)
	mux.HandleFunc("POST /route", rt.handleRoute)
	return mux
}

// handleUpdate forwards an edit batch to every worker replica — each worker
// holds the full ensemble, so all of them must apply every update. The
// forwards run concurrently; the response reports each worker's resulting
// version. Any worker failure yields 502 with the per-worker outcomes so the
// operator can see which replicas diverged (a replica that missed an update
// must be restarted before it serves again — the router's health probes
// don't track versions).
func (rt *router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	// Updates run a repair and a reindex upstream — give them far more room
	// than one query attempt.
	timeout := 6 * rt.attemptTimeout
	if timeout < 30*time.Second {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	type workerUpdate struct {
		URL     string `json:"url"`
		Version int64  `json:"version,omitempty"`
		Error   string `json:"error,omitempty"`
	}
	results := make([]workerUpdate, len(rt.workers))
	var wg sync.WaitGroup
	failed := 0
	var mu sync.Mutex
	for i, wk := range rt.workers {
		wg.Add(1)
		go func(i int, wk *workerRef) {
			defer wg.Done()
			ver, err := rt.postUpdate(ctx, wk, body)
			results[i] = workerUpdate{URL: wk.url, Version: ver}
			if err != nil {
				results[i].Error = err.Error()
				mu.Lock()
				failed++
				mu.Unlock()
			}
		}(i, wk)
	}
	wg.Wait()
	if failed > 0 {
		writeError(w, http.StatusBadGateway, errUpstreamUnavailable,
			fmt.Sprintf("%d of %d workers failed to apply the update", failed, len(rt.workers)),
			map[string]any{"workers": results})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": results})
}

func (rt *router) postUpdate(ctx context.Context, w *workerRef, body []byte) (int64, error) {
	status, resp, err := rt.post(ctx, w, "/update", body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		var er errorResponse
		if json.Unmarshal(resp, &er) == nil && er.Error.Code != "" {
			return 0, fmt.Errorf("POST /update: %d %s: %s (%s)", status, http.StatusText(status), er.Error.Message, er.Error.Code)
		}
		return 0, fmt.Errorf("POST /update: %d %s", status, http.StatusText(status))
	}
	var ur updateResponse
	if err := json.Unmarshal(resp, &ur); err != nil {
		return 0, err
	}
	return ur.Version, nil
}

// post sends one POST of body to path on worker w and returns the status
// and the whole response body. Any HTTP answer is a response; only transport
// failures are errors.
func (rt *router) post(ctx context.Context, w *workerRef, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+path, bytes.NewReader(body))
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

// handleHealthz reports fleet health: ok with every replica up, degraded
// (still 200 — the router is serving) with some down, 503 with none.
func (rt *router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
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
	writeJSON(w, code, map[string]any{"status": status, "workers": ws})
}

func (rt *router) handleStats(w http.ResponseWriter, _ *http.Request) {
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
	writeJSON(w, http.StatusOK, map[string]any{
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
	})
}

func (rt *router) handleDist(w http.ResponseWriter, r *http.Request) {
	u, err1 := parseNode(r.URL.Query().Get("u"), rt.n)
	v, err2 := parseNode(r.URL.Query().Get("v"), rt.n)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, errBadNode,
			"u and v must be node ids in [0, n)", map[string]any{"n": rt.n})
		return
	}
	stat := r.URL.Query().Get("stat")
	if stat == "" {
		stat = "min"
	}
	if stat != "min" && stat != "median" {
		writeError(w, http.StatusBadRequest, errBadStat,
			"stat must be min or median", map[string]any{"stat": stat})
		return
	}
	dists, err := rt.fanBatch(r.Context(), []frt.Pair{{U: u, V: v}}, stat, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, errUpstreamUnavailable, err.Error(), nil)
		return
	}
	rt.queries.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"u": u, "v": v, "dist": dists[0]})
}

func (rt *router) handleBatch(w http.ResponseWriter, r *http.Request) {
	pairs, req, ok := decodeBatch(w, r, rt.n)
	if !ok {
		return
	}
	stat := req.Stat
	if stat == "" {
		stat = "min"
	}
	if stat != "min" && stat != "median" {
		// pertree is the worker-facing protocol, not a router stat: the
		// router exists to hide shard reassembly from clients.
		writeError(w, http.StatusBadRequest, errBadStat,
			"stat must be min or median", map[string]any{"stat": stat})
		return
	}
	bufp := rt.bufs.Get().(*[]float64)
	defer rt.bufs.Put(bufp)
	dists, err := rt.fanBatch(r.Context(), pairs, stat, *bufp)
	if err != nil {
		writeError(w, http.StatusBadGateway, errUpstreamUnavailable, err.Error(), nil)
		return
	}
	*bufp = dists[:0]
	rt.queries.Add(int64(len(pairs)))
	rt.batches.Add(1)
	writeJSON(w, http.StatusOK, batchResponse{Dists: dists})
}

// shardResult is one shard's pair-major per-tree block.
type shardResult struct {
	lo, hi int
	dists  []float64
}

// fanBatch asks each non-empty shard for its per-tree distances (retrying on
// other replicas), reassembles every pair's full K-vector in ascending tree
// order, and folds it exactly as OracleIndex does — strict-< for min, full
// sort for median — so the merged answers are bitwise identical to a single
// process evaluating the whole ensemble.
func (rt *router) fanBatch(ctx context.Context, pairs []frt.Pair, stat string, buf []float64) ([]float64, error) {
	// Overall budget: every shard may in the worst case try every worker
	// sequentially.
	deadline := rt.attemptTimeout*time.Duration(len(rt.workers)) + rt.attemptTimeout/2
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		results  []shardResult
		firstErr error
	)
	for i, shard := range rt.shards {
		if shard[0] == shard[1] {
			continue // spare worker, no primary shard
		}
		wg.Add(1)
		go func(primary int, lo, hi int) {
			defer wg.Done()
			dists, err := rt.fetchShard(ctx, primary, lo, hi, pairs)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("shard [%d, %d): %w", lo, hi, err)
					cancel() // no point finishing the other shards
				}
				return
			}
			results = append(results, shardResult{lo: lo, hi: hi, dists: dists})
		}(i, shard[0], shard[1])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Ascending tree order: the merge contract of OracleIndex.PerTreeBatch.
	sort.Slice(results, func(a, b int) bool { return results[a].lo < results[b].lo })

	out := buf
	if cap(out) < len(pairs) {
		out = make([]float64, len(pairs))
	}
	out = out[:len(pairs)]
	if stat == "min" {
		for i := range pairs {
			var best float64
			t := 0
			for _, sr := range results {
				w := sr.hi - sr.lo
				for j := 0; j < w; j++ {
					if d := sr.dists[i*w+j]; t == 0 || d < best {
						best = d
					}
					t++
				}
			}
			out[i] = best
		}
		return out, nil
	}
	ds := make([]float64, rt.k)
	for i := range pairs {
		t := 0
		for _, sr := range results {
			w := sr.hi - sr.lo
			copy(ds[t:t+w], sr.dists[i*w:(i+1)*w])
			t += w
		}
		out[i] = frt.MedianOf(ds)
	}
	return out, nil
}

// fetchShard asks workers for trees [lo, hi) of every pair: an answer
// counts only if it is a 200 with exactly len(pairs)·(hi−lo) distances.
func (rt *router) fetchShard(ctx context.Context, primary, lo, hi int, pairs []frt.Pair) ([]float64, error) {
	body, err := json.Marshal(batchRequest{
		Pairs: pairsToWire(pairs), Stat: "pertree", Trees: &[2]int{lo, hi},
	})
	if err != nil {
		return nil, err
	}
	var dists []float64
	_, _, err = rt.fetch(ctx, primary, "/batch", body, func(status int, resp []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("POST /batch: %d %s", status, http.StatusText(status))
		}
		var br batchResponse
		if err := json.Unmarshal(resp, &br); err != nil {
			return err
		}
		if want := len(pairs) * (hi - lo); len(br.Dists) != want {
			return fmt.Errorf("shard answer has %d dists, want %d", len(br.Dists), want)
		}
		dists = br.Dists
		return nil
	})
	return dists, err
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
		status, resp, err := rt.post(actx, w, path, body)
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
	order := make([]int, 0, len(rt.workers))
	order = append(order, primary)
	for i, w := range rt.workers {
		if i != primary && w.healthy.Load() {
			order = append(order, i)
		}
	}
	for i, w := range rt.workers {
		if i != primary && !w.healthy.Load() {
			order = append(order, i)
		}
	}
	return order
}

func pairsToWire(pairs []frt.Pair) [][2]int64 {
	out := make([][2]int64, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int64{int64(p.U), int64(p.V)}
	}
	return out
}
