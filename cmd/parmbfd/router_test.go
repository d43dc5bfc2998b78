package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// testFleet builds one ensemble, serves it from `workers` independent worker
// processes (each indexing the full snapshot, as -load replicas would), and
// fronts them with a router. The returned single-process server is the
// bitwise reference the fleet must reproduce.
func testFleet(t *testing.T, workers int, attemptTimeout, healthEvery time.Duration) (*router, []*httptest.Server, *server) {
	t.Helper()
	rng := par.NewRNG(11)
	g := graph.RandomConnected(48, 140, 8, rng)
	ens, meta, err := buildEnsemble(g, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newServer(g, ens, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	var (
		urls []string
		tss  []*httptest.Server
	)
	for i := 0; i < workers; i++ {
		ws, err := newServer(g, ens, meta, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(ws.mux())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		tss = append(tss, ts)
	}
	rt, err := newRouter(urls, 8, attemptTimeout, healthEvery)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, tss, ref
}

func randomWirePairs(seed uint64, n, count int) ([][2]int64, []frt.Pair) {
	rng := par.NewRNG(seed)
	wire := make([][2]int64, count)
	pairs := make([]frt.Pair, count)
	for i := range wire {
		u, v := rng.Intn(n), rng.Intn(n)
		if i%9 == 0 {
			v = u // exercise the u == v zero path through the merge
		}
		wire[i] = [2]int64{int64(u), int64(v)}
		pairs[i] = frt.Pair{U: graph.Node(u), V: graph.Node(v)}
	}
	return wire, pairs
}

// TestRouterShardedMergeMatchesSingle is the sharded-merge differential:
// for fleets of 1, 2, and 4 workers (K=6, so 2- and 4-worker fleets get
// uneven shards), the router's min and median answers must equal the
// single-process OracleIndex bitwise.
func TestRouterShardedMergeMatchesSingle(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		rt, _, ref := testFleet(t, workers, 2*time.Second, time.Hour)
		rts := httptest.NewServer(rt.mux())
		t.Cleanup(rts.Close)

		wire, pairs := randomWirePairs(uint64(workers), ref.state.Load().n, 64)
		wantMin := ref.state.Load().idx.MinBatch(pairs, nil)
		wantMed := ref.state.Load().idx.MedianBatch(pairs, nil)
		for _, c := range []struct {
			stat string
			want []float64
		}{{"min", wantMin}, {"median", wantMed}} {
			body, _ := json.Marshal(batchRequest{Pairs: wire, Stat: c.stat})
			code, br := postJSON(t, rts.URL+"/batch", string(body))
			if code != http.StatusOK {
				t.Fatalf("%d workers %s: code %d", workers, c.stat, code)
			}
			for i := range c.want {
				if br.Dists[i] != c.want[i] {
					t.Fatalf("%d workers %s pair %d: router %v, single %v",
						workers, c.stat, i, br.Dists[i], c.want[i])
				}
			}
		}
		// /dist goes through the same fan-out path.
		var got struct {
			Dist float64 `json:"dist"`
		}
		if code := getJSON(t, rts.URL+"/dist?u=3&v=40&stat=median", &got); code != http.StatusOK {
			t.Fatalf("%d workers /dist: code %d", workers, code)
		}
		if want := ref.state.Load().idx.Median(3, 40); got.Dist != want {
			t.Fatalf("%d workers /dist: %v, want %v", workers, got.Dist, want)
		}
	}
}

// TestRouterRejectsBadInput: the router applies the same structured
// validation as a worker, and hides the pertree wire protocol from clients.
func TestRouterRejectsBadInput(t *testing.T) {
	rt, _, _ := testFleet(t, 2, 2*time.Second, time.Hour)
	rts := httptest.NewServer(rt.mux())
	t.Cleanup(rts.Close)
	cases := []struct {
		name, body, code string
	}{
		{"not json", "{", errBadJSON},
		{"empty pairs", `{"pairs":[]}`, errEmptyPairs},
		{"out of range", `{"pairs":[[0,99999]]}`, errPairOutOfRange},
		{"pertree not public", `{"pairs":[[0,1]],"stat":"pertree"}`, errBadStat},
	}
	for _, c := range cases {
		status, e := postForError(t, rts.URL+"/batch", c.body)
		if status != http.StatusBadRequest || e.Code != c.code {
			t.Fatalf("%s: status %d code %q, want 400 %q", c.name, status, e.Code, c.code)
		}
	}
	if code := getJSON(t, rts.URL+"/dist?u=0&v=99999", nil); code != http.StatusBadRequest {
		t.Fatalf("router /dist out-of-range: code %d, want 400", code)
	}
}

// TestRouterSurvivesKilledWorker kills one replica outright: /batch must
// stay bitwise correct by retrying the dead worker's shard on survivors,
// /healthz must degrade, /stats must count the failovers, and a fully dead
// fleet must fail loudly with 502/503 rather than hang.
func TestRouterSurvivesKilledWorker(t *testing.T) {
	rt, tss, ref := testFleet(t, 3, time.Second, 50*time.Millisecond)
	rts := httptest.NewServer(rt.mux())
	t.Cleanup(rts.Close)

	tss[1].Close() // kill the middle replica (owns a non-empty shard of K=6)

	wire, pairs := randomWirePairs(7, ref.state.Load().n, 32)
	want := ref.state.Load().idx.MinBatch(pairs, nil)
	body, _ := json.Marshal(batchRequest{Pairs: wire})
	code, br := postJSON(t, rts.URL+"/batch", string(body))
	if code != http.StatusOK {
		t.Fatalf("batch with dead worker: code %d", code)
	}
	for i := range want {
		if br.Dists[i] != want[i] {
			t.Fatalf("degraded pair %d: %v, want %v", i, br.Dists[i], want[i])
		}
	}

	var health struct {
		Status  string `json:"status"`
		Workers []struct {
			Healthy bool `json:"healthy"`
		} `json:"workers"`
	}
	if code := getJSON(t, rts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("degraded healthz: code %d", code)
	}
	if health.Status != "degraded" {
		t.Fatalf("healthz status %q, want degraded", health.Status)
	}
	downs := 0
	for _, w := range health.Workers {
		if !w.Healthy {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("healthz reports %d down workers, want 1", downs)
	}
	var stats struct {
		Failovers      int64 `json:"failovers"`
		HealthyWorkers int   `json:"healthyWorkers"`
	}
	if code := getJSON(t, rts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: code %d", code)
	}
	if stats.Failovers < 1 {
		t.Fatalf("failovers = %d, want ≥ 1", stats.Failovers)
	}
	if stats.HealthyWorkers != 2 {
		t.Fatalf("healthyWorkers = %d, want 2", stats.HealthyWorkers)
	}

	// Kill the rest: the router must answer 502 on /batch and 503 on
	// /healthz, not hang or return partial data.
	tss[0].Close()
	tss[2].Close()
	status, e := postForError(t, rts.URL+"/batch", string(body))
	if status != http.StatusBadGateway || e.Code != errUpstreamUnavailable {
		t.Fatalf("dead fleet batch: status %d code %q, want 502 %q", status, e.Code, errUpstreamUnavailable)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, rts.URL+"/healthz", nil); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported a dead fleet")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterSurvivesHangingWorker wedges one replica's /batch (accepts the
// request, never answers — the failure mode a kill doesn't cover): the
// per-attempt timeout must fire and the shard must be retried on a healthy
// replica within the request deadline, with correct results.
func TestRouterSurvivesHangingWorker(t *testing.T) {
	rt, _, ref := testFleet(t, 2, 400*time.Millisecond, time.Hour)

	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/batch" {
			<-release
			writeError(w, http.StatusServiceUnavailable, errOverloaded, "released", nil)
			return
		}
		// /stats and /healthz answer normally so the worker looks alive.
		writeJSON(w, http.StatusOK, statsResponse{Nodes: int64(ref.state.Load().n), Trees: int64(ref.state.Load().idx.NumTrees())})
	}))
	t.Cleanup(hang.Close)
	t.Cleanup(func() { close(release) }) // runs before hang.Close, unwedging it

	// Rebuild the router with the hanging worker as the primary of shard 0.
	urls := []string{hang.URL, rt.workers[0].url, rt.workers[1].url}
	rt2, err := newRouter(urls, 8, 400*time.Millisecond, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt2.Close)
	rts := httptest.NewServer(rt2.mux())
	t.Cleanup(rts.Close)

	wire, pairs := randomWirePairs(13, ref.state.Load().n, 16)
	want := ref.state.Load().idx.MedianBatch(pairs, nil)
	body, _ := json.Marshal(batchRequest{Pairs: wire, Stat: "median"})
	start := time.Now()
	code, br := postJSON(t, rts.URL+"/batch", string(body))
	if code != http.StatusOK {
		t.Fatalf("batch with hung worker: code %d", code)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("retry took %v — per-attempt timeout did not bound the hang", elapsed)
	}
	for i := range want {
		if br.Dists[i] != want[i] {
			t.Fatalf("hung-worker pair %d: %v, want %v", i, br.Dists[i], want[i])
		}
	}
}

// TestRouterFailsOverRejectedShardAnswer: a replica that answers a shard
// fetch with an HTTP error, a body that is not JSON, or the wrong number of
// per-tree distances is passed over like a dead one — the shard is retried
// on a healthy replica, the merged answers stay bitwise the single server's,
// and the failovers are counted.
func TestRouterFailsOverRejectedShardAnswer(t *testing.T) {
	rt, _, ref := testFleet(t, 2, time.Second, time.Hour)
	st := ref.state.Load()
	stats := statsResponse{Nodes: int64(st.n), Trees: int64(st.idx.NumTrees())}
	fake := func(batch func(w http.ResponseWriter)) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/batch" {
				batch(w)
				return
			}
			writeJSON(w, http.StatusOK, stats)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	failing := fake(func(w http.ResponseWriter) {
		writeError(w, http.StatusInternalServerError, errOverloaded, "rejected", nil)
	})
	garbled := fake(func(w http.ResponseWriter) { _, _ = w.Write([]byte("{")) })
	short := fake(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, batchResponse{Dists: []float64{1}}) })
	// The three bad replicas are the primaries of shards 0–2.
	rt2, err := newRouter([]string{failing, garbled, short, rt.workers[0].url, rt.workers[1].url}, 8, time.Second, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt2.Close)
	rts := httptest.NewServer(rt2.mux())
	t.Cleanup(rts.Close)

	wire, pairs := randomWirePairs(17, st.n, 16)
	for _, stat := range []string{"min", "median"} {
		want := st.idx.MinBatch(pairs, nil)
		if stat == "median" {
			want = st.idx.MedianBatch(pairs, nil)
		}
		body, _ := json.Marshal(batchRequest{Pairs: wire, Stat: stat})
		code, br := postJSON(t, rts.URL+"/batch", string(body))
		if code != http.StatusOK {
			t.Fatalf("%s batch with rejecting replicas: code %d", stat, code)
		}
		for i := range want {
			if br.Dists[i] != want[i] {
				t.Fatalf("%s pair %d: %v, want %v", stat, i, br.Dists[i], want[i])
			}
		}
	}
	if got := rt2.failovers.Load(); got < 3 {
		t.Fatalf("failovers = %d, want ≥ 3 (one per rejecting primary)", got)
	}
}

// TestRouterShutdownLeaksNoGoroutines pins the lifecycle: a router that
// served traffic (including failed attempts against a dead worker) must
// release every goroutine on Close — health loop, fan-out workers, and
// transport keep-alives.
func TestRouterShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	rng := par.NewRNG(17)
	g := graph.RandomConnected(32, 96, 8, rng)
	ens, meta, err := buildEnsemble(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws1, _ := newServer(g, ens, meta, nil)
	ws2, _ := newServer(g, ens, meta, nil)
	ts1 := httptest.NewServer(ws1.mux())
	ts2 := httptest.NewServer(ws2.mux())
	rt, err := newRouter([]string{ts1.URL, ts2.URL}, 4, 300*time.Millisecond, 20*time.Millisecond)
	if err != nil {
		ts1.Close()
		ts2.Close()
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.mux())

	wire, _ := randomWirePairs(19, 32, 8)
	body, _ := json.Marshal(batchRequest{Pairs: wire})
	if code, _ := postJSON(t, rts.URL+"/batch", string(body)); code != http.StatusOK {
		t.Fatalf("warm-up batch: code %d", code)
	}
	ts2.Close() // force failure + retry traffic before shutdown
	if code, _ := postJSON(t, rts.URL+"/batch", string(body)); code != http.StatusOK {
		t.Fatalf("degraded batch: code %d", code)
	}

	rts.Close()
	rt.Close()
	ts1.Close()
	http.DefaultClient.CloseIdleConnections() // postJSON's keep-alives, not the router's

	// Goroutine counts settle asynchronously (closed servers wind down
	// their conn goroutines); poll instead of sleeping a fixed amount.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestShardTrees(t *testing.T) {
	cases := []struct {
		k, w int
		want [][2]int
	}{
		{6, 1, [][2]int{{0, 6}}},
		{6, 2, [][2]int{{0, 3}, {3, 6}}},
		{6, 4, [][2]int{{0, 2}, {2, 4}, {4, 5}, {5, 6}}},
		{2, 3, [][2]int{{0, 1}, {1, 2}, {2, 2}}},
	}
	for _, c := range cases {
		got := shardTrees(c.k, c.w)
		if len(got) != len(c.want) {
			t.Fatalf("shardTrees(%d,%d) = %v", c.k, c.w, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("shardTrees(%d,%d) = %v, want %v", c.k, c.w, got, c.want)
			}
		}
	}
}
