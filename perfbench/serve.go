package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"parmbf/internal/apps/buyatbulk"
	"parmbf/internal/apps/kmedian"
	"parmbf/internal/apps/routing"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Wire shapes of the parmbfd endpoints the benchmark calls itself.
type (
	batchReq struct {
		Pairs [][2]int64 `json:"pairs"`
		Stat  string     `json:"stat"`
	}
	batchResp struct {
		Dists []float64 `json:"dists"`
	}
	wireEdit struct {
		Op     string  `json:"op"`
		U      int64   `json:"u"`
		V      int64   `json:"v"`
		Weight float64 `json:"weight,omitempty"`
	}
	updateReq struct {
		Edits []wireEdit `json:"edits"`
	}
	updateResp struct {
		Version         int64 `json:"version"`
		AffectedTrees   int   `json:"affectedTrees"`
		RecomputedNodes int   `json:"recomputedNodes"`
	}
	kmedianReq struct {
		K    int    `json:"k"`
		Seed uint64 `json:"seed"`
	}
	kmedianResp struct {
		Centers []int64 `json:"centers"`
		Cost    float64 `json:"cost"`
	}
	wireDemand struct {
		S      int64   `json:"s"`
		T      int64   `json:"t"`
		Amount float64 `json:"amount"`
	}
	wireCable struct {
		Capacity float64 `json:"capacity"`
		Cost     float64 `json:"cost"`
	}
	buyAtBulkReq struct {
		Demands []wireDemand `json:"demands"`
		Cables  []wireCable  `json:"cables"`
	}
	buyAtBulkResp struct {
		Purchases []struct {
			U     int64 `json:"u"`
			V     int64 `json:"v"`
			Cable int   `json:"cable"`
			Count int   `json:"count"`
		} `json:"purchases"`
		Cost float64 `json:"cost"`
	}
	routeReq struct {
		Pairs [][2]int64 `json:"pairs"`
	}
	routeResp struct {
		Routes []struct {
			Path     []int64 `json:"path"`
			Length   float64 `json:"length"`
			Tree     int     `json:"tree"`
			TreeDist float64 `json:"treeDist"`
		} `json:"routes"`
	}
)

// serveEnv is one running parmbfd -dynamic server and the graph it serves.
type serveEnv struct {
	d      *daemon
	api    *apiClient
	g      *graph.Graph // the graph as parsed back from the -in file
	setups []float64
}

// startServe generates and writes the workload graph, then starts the server
// SetupRepeats times; setup_s is the median spawn-to-healthy time. The last
// server keeps running; the caller stops it with close.
func startServe(ctx context.Context, cfg *config, tr *tracer, res *result, n, k int) (*serveEnv, error) {
	path := filepath.Join(cfg.work, "graph.txt")
	var g *graph.Graph
	var err error
	gen := tr.do(nil, "graph", "graph.gen", func(*span) { g, err = writeGraph(path, genGraph(n, par.NewRNG(cfg.seed))) })
	if err != nil {
		return nil, err
	}
	args := []string{"-dynamic", "-in", path, "-trees", strconv.Itoa(k), "-seed", strconv.FormatUint(cfg.seed, 10)}
	if tr != nil {
		res.setLayer("graph.gen_s", gen.Seconds(), "s", 1)
	}
	env := &serveEnv{g: g}
	for r := 0; r < cfg.sz.SetupRepeats; r++ {
		d, setup, err := startDaemon(ctx, cfg, args...)
		if err != nil {
			return nil, err
		}
		env.setups = append(env.setups, setup.Seconds())
		if r < cfg.sz.SetupRepeats-1 {
			d.stop()
			continue
		}
		env.d = d
	}
	env.api = newAPIClient(env.d.url)
	return env, nil
}

// close stops the server and returns its peak RSS in MiB.
func (env *serveEnv) close() float64 {
	if env.api != nil {
		env.api.close()
	}
	if env.d == nil {
		return 0
	}
	return env.d.stop()
}

// replica is the in-process twin of the server's ensemble: the same graph
// file, the same seed, the same constructor.
type replica struct {
	ens *frt.Ensemble
	idx *frt.OracleIndex
	dyn *frt.DynamicEnsemble
}

// buildReplica builds the twin. Untraced it calls NewDynamicEnsemble, as
// the server does; traced it replays the constructor stage by stage inside
// spans (orders and β, LEListsOnGraphBatch, BuildTree per tree, index) and,
// when the workload needs live updates, also builds the DynamicEnsemble from
// the same randomness and checks that both agree byte for byte.
func buildReplica(cfg *config, g *graph.Graph, k int, tr *tracer, res *result, withDyn bool) (*replica, error) {
	rng := par.NewRNG(cfg.seed)
	if tr == nil {
		dyn, err := frt.NewDynamicEnsemble(g, k, rng, nil)
		if err != nil {
			return nil, err
		}
		ens := dyn.Ensemble()
		idx, err := ens.Index()
		return &replica{ens: ens, idx: idx, dyn: dyn}, err
	}
	n := g.N()
	root := tr.start(nil, tr.request(), "bench", "replica.build")
	defer tr.end(root)
	orders := make([]*frt.Order, k)
	betas := make([]float64, k)
	for i, r := range rng.SplitN(k) {
		orders[i] = frt.NewOrder(n, r)
		betas[i] = frt.RandomBeta(r)
	}
	tk := &par.Tracker{}
	var lists [][]semiring.DistMap
	var iters []int
	le := tr.do(root, "frt", "direct.le", func(*span) { lists, iters = frt.LEListsOnGraphBatch(g, orders, tk) })
	trees := make([]*frt.Tree, k)
	var bt []float64
	for i := range trees {
		var err error
		d := tr.do(root, "frt", "frt.buildtree", func(*span) { trees[i], err = frt.BuildTree(lists[i], orders[i], betas[i]) })
		if err != nil {
			return nil, err
		}
		bt = append(bt, ms(d))
	}
	ens := &frt.Ensemble{Trees: trees}
	var idx *frt.OracleIndex
	var err error
	ib := tr.do(root, "frt", "index.build", func(*span) { idx, err = ens.Index() })
	if err != nil {
		return nil, err
	}
	lenMean, lenMax := leLengths(lists)
	res.setLayer("direct.le_s", le.Seconds(), "s", 1)
	res.setLayer("frt.buildtree_ms", median(bt), "ms", len(bt))
	res.setLayer("index.build_ms", ms(ib), "ms", 1)
	res.setLayer("le.len_mean", lenMean, "count", 1)
	res.setLayer("le.len_max", lenMax, "count", 1)
	res.detail["direct_le_iters"] = iters
	res.detail["direct_le_work"] = tk.Work()
	rep := &replica{ens: ens, idx: idx}
	if withDyn {
		dyn, err := frt.NewDynamicEnsembleWith(g, orders, betas, nil)
		if err != nil {
			return nil, err
		}
		same, err := sameSnapshot(g, dyn.Ensemble(), ens)
		if err != nil {
			return nil, err
		}
		res.check(same, "stage replay differs from NewDynamicEnsembleWith")
		rep.dyn = dyn
	}
	return rep, nil
}

func sameSnapshot(g *graph.Graph, a, b *frt.Ensemble) (bool, error) {
	var x, y bytes.Buffer
	meta := frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}
	if err := frt.WriteSnapshot(&x, a, meta); err != nil {
		return false, err
	}
	if err := frt.WriteSnapshot(&y, b, meta); err != nil {
		return false, err
	}
	return bytes.Equal(x.Bytes(), y.Bytes()), nil
}

// batchCheck is a set of /batch answers taken at one server state, to be
// compared bitwise against an in-process index of the same state.
type batchCheck struct {
	pairs []frt.Pair
	stat  string
	dists []float64
	httpD time.Duration
	req   int // trace request id shared by the HTTP and the kernel span
}

// fetchBatches POSTs count seeded /batch requests, alternating stat=min and
// stat=median, and records the answers. Traced, each request is a parmbfd
// span; the in-process kernel call on the same pairs later joins it under
// the same request id.
func fetchBatches(ctx context.Context, api *apiClient, n, batch, count int, rng *par.RNG, tr *tracer) ([]*batchCheck, error) {
	var out []*batchCheck
	for i := 0; i < count; i++ {
		bc := &batchCheck{pairs: randomPairs(n, batch, rng), stat: []string{"min", "median"}[i%2]}
		req := batchReq{Stat: bc.stat, Pairs: wirePairs(bc.pairs)}
		var resp batchResp
		bc.req = tr.request()
		s := tr.start(nil, bc.req, "parmbfd", "http.batch")
		t0 := time.Now()
		err := api.post(ctx, "/batch", req, &resp)
		bc.httpD = time.Since(t0)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		bc.dists = resp.Dists
		out = append(out, bc)
	}
	return out, nil
}

// compareBatches checks every recorded answer bitwise against idx and
// returns the kernel times (µs) of the in-process batches, split by stat.
func compareBatches(res *result, label string, idx *frt.OracleIndex, checks []*batchCheck, tr *tracer) (minUs, medUs, overheadMs []float64) {
	for i, bc := range checks {
		var want []float64
		s := tr.start(nil, bc.req, "frt", "index."+bc.stat+"batch")
		t0 := time.Now()
		if bc.stat == "min" {
			want = idx.MinBatch(bc.pairs, nil)
		} else {
			want = idx.MedianBatch(bc.pairs, nil)
		}
		d := time.Since(t0)
		tr.end(s)
		if bc.stat == "min" {
			minUs = append(minUs, d.Seconds()*1e6)
		} else {
			medUs = append(medUs, d.Seconds()*1e6)
		}
		overheadMs = append(overheadMs, ms(bc.httpD-d))
		res.check(bitwiseEqual(bc.dists, want), "%s: /batch %d (stat=%s) differs from the in-process index", label, i, bc.stat)
	}
	return minUs, medUs, overheadMs
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkStretch evaluates the replica's ensemble — verified bitwise equal to
// what the server answers — on seeded pairs with exact distances.
func checkStretch(cfg *config, res *result, g *graph.Graph, rep *replica, rng *par.RNG) {
	ep := newEvalPairs(g, cfg.sz.CheckPairs, rng)
	st, sm, viol := ep.stretch(rep.ens.Trees, rep.idx)
	res.check(viol == 0, "%d dominance violations", viol)
	res.set("stretch_mean", st, "ratio", len(ep.pairs)*len(rep.ens.Trees))
	res.set("stretch_min_mean", sm, "ratio", len(ep.pairs))
}

// runServeQuery: two closed-loop clients POST 256-pair /batch requests to
// parmbfd -dynamic. It separates kernel time (MinBatch) from HTTP/JSON
// serving time.
func runServeQuery(ctx context.Context, cfg *config, tr *tracer) (*result, error) {
	sz := cfg.sz
	res := newResult()
	env, err := startServe(ctx, cfg, tr, res, sz.ServeN, sz.ServeK)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep, err := buildReplica(cfg, env.g, sz.ServeK, tr, res, false)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	ss, err := clientLoop(ctx, cfg, env.d.url, "batch", sz.QueryRequests, sz.Batch, 2, cfg.seed<<20,
		func() bool { return deadline(ctx, cfg, t0) })
	if err != nil {
		return nil, err
	}
	p50, p90, p99, pps, _ := summarize(res, ss)

	rng := par.NewRNG(cfg.seed ^ 0x5eed)
	checks, err := fetchBatches(ctx, env.api, env.g.N(), sz.Batch, checkCount(cfg), rng, tr)
	if err != nil {
		return nil, err
	}
	minUs, medUs, over := compareBatches(res, "serve-query", rep.idx, checks, tr)
	checkStretch(cfg, res, env.g, rep, rng)

	rss := env.close()
	res.set("setup_s", median(env.setups), "s", len(env.setups))
	res.set("op_p50_ms", p50, "ms", len(ss)*sz.QueryRequests)
	res.detail["query_p90_ms"] = p90
	res.set("ops_per_s", pps, "1/s", len(ss))
	res.set("peak_rss_mb", rss, "MB", 1)
	res.detail["query_p99_ms"] = p99
	res.detail["client_invocations"] = len(ss)
	if tr != nil {
		res.setLayer("index.minbatch_us", median(minUs), "us", len(minUs))
		res.setLayer("index.medianbatch_us", median(medUs), "us", len(medUs))
		res.setLayer("http.batch_overhead_ms", median(over), "ms", len(over))
	}
	return res, nil
}

// checkCount is how many /batch answers a run compares; the traced run takes
// more, since their timings feed the per-layer medians.
func checkCount(cfg *config) int {
	if cfg.trace {
		return 8 * cfg.sz.CheckBatches
	}
	return cfg.sz.CheckBatches
}

// updateScript is the seeded /update script: a fixed cycle of six one-edit
// batches that returns the graph to its start state — halve and restore an
// edge weight, delete and reinsert a non-bridge edge, insert and delete a new
// edge. It covers the decrease-only repair path and the non-monotone
// invalidate-and-recompute path.
type updateScript struct {
	g     *graph.Graph
	edges []graph.Edge
	rng   *par.RNG
	steps [][]graph.Edit
}

func newUpdateScript(g *graph.Graph, seed uint64) *updateScript {
	return &updateScript{g: g, edges: g.Edges(), rng: par.NewRNG(seed ^ 0xed17)}
}

// step returns update i, generating cycles as needed.
func (s *updateScript) step(i int) []graph.Edit {
	for len(s.steps) <= i {
		s.cycle()
	}
	return s.steps[i]
}

func (s *updateScript) cycle() {
	n := s.g.N()
	pick := func() graph.Edge { return s.edges[s.rng.Intn(len(s.edges))] }
	e1 := pick()
	e2 := pick()
	for !s.nonBridge(e2) {
		e2 = pick()
	}
	var a, b graph.Node
	for {
		a, b = graph.Node(s.rng.Intn(n)), graph.Node(s.rng.Intn(n))
		if _, ok := s.g.HasEdge(a, b); a != b && !ok {
			break
		}
	}
	w := pick().Weight
	one := func(e graph.Edit) []graph.Edit { return []graph.Edit{e} }
	s.steps = append(s.steps,
		one(graph.Edit{Op: graph.EditReweight, U: e1.U, V: e1.V, Weight: e1.Weight / 2}),
		one(graph.Edit{Op: graph.EditReweight, U: e1.U, V: e1.V, Weight: e1.Weight}),
		one(graph.Edit{Op: graph.EditDelete, U: e2.U, V: e2.V}),
		one(graph.Edit{Op: graph.EditInsert, U: e2.U, V: e2.V, Weight: e2.Weight}),
		one(graph.Edit{Op: graph.EditInsert, U: a, V: b, Weight: w}),
		one(graph.Edit{Op: graph.EditDelete, U: a, V: b}),
	)
}

func (s *updateScript) nonBridge(e graph.Edge) bool {
	g2, _, err := graph.ApplyEdits(s.g, []graph.Edit{{Op: graph.EditDelete, U: e.U, V: e.V}})
	return err == nil && g2.Connected()
}

func toWire(edits []graph.Edit) updateReq {
	req := updateReq{Edits: make([]wireEdit, len(edits))}
	for i, e := range edits {
		req.Edits[i] = wireEdit{Op: e.Op.String(), U: int64(e.U), V: int64(e.V), Weight: e.Weight}
	}
	return req
}

// runServeUpdate: one closed-loop client walks the update script on
// /update while the other keeps POSTing /batch through parmbfd -client. Every
// update rebuilds the OracleIndex, so a change that speeds queries by making
// the index costlier shows here.
func runServeUpdate(ctx context.Context, cfg *config, tr *tracer) (*result, error) {
	sz := cfg.sz
	res := newResult()
	env, err := startServe(ctx, cfg, tr, res, sz.ServeN, sz.ServeK)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep, err := buildReplica(cfg, env.g, sz.ServeK, tr, res, true)
	if err != nil {
		return nil, err
	}
	script := newUpdateScript(env.g, cfg.seed)
	checkRNG := par.NewRNG(cfg.seed ^ 0x5eed)
	// Answers are captured mid-cycle (graph edited) and after whole cycles
	// (graph restored), then compared with the in-process replay.
	checkpoints := map[int][]*batchCheck{3: nil, sz.ReplayUpdates: nil}

	var (
		wg      sync.WaitGroup
		reads   []*clientSummary
		readErr error
		done    = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads, readErr = clientLoop(ctx, cfg, env.d.url, "batch", sz.QueryRequests, sz.Batch, 1, cfg.seed<<20,
			func() bool {
				select {
				case <-done:
					return true
				default:
					return false
				}
			})
	}()

	var lat []float64
	var updErr error
	t0 := time.Now()
	for step := 0; step < sz.MinUpdateSteps || !deadline(ctx, cfg, t0); step++ {
		var resp updateResp
		req := tr.request()
		s := tr.start(nil, req, "parmbfd", "http.update")
		ts := time.Now()
		err := env.api.post(ctx, "/update", toWire(script.step(step)), &resp)
		lat = append(lat, ms(time.Since(ts)))
		tr.end(s)
		res.attempted++
		if err != nil || resp.Version != int64(step+1) {
			updErr = fmt.Errorf("update %d: version %d: %v", step, resp.Version, err)
			break
		}
		if _, ok := checkpoints[step+1]; ok {
			bc, err := fetchBatches(ctx, env.api, env.g.N(), sz.Batch, 2, checkRNG, nil)
			if err != nil {
				updErr = err
				break
			}
			checkpoints[step+1] = bc
		}
	}
	close(done)
	wg.Wait()
	if updErr != nil {
		return nil, updErr
	}
	if readErr != nil {
		return nil, readErr
	}
	_, readP90, readP99, _, _ := summarize(res, reads)

	// Replay the script prefix in-process, as the server applies it: repair,
	// then index the new ensemble. Stats come from this fixed prefix, so the
	// counts repeat exactly at a fixed seed.
	checkStretch(cfg, res, env.g, rep, par.NewRNG(cfg.seed^0x57e7))
	var apply, index, minUs, medUs []float64
	var recomputed, affected, iters int
	for step := 0; step < sz.ReplayUpdates; step++ {
		root := tr.start(nil, tr.request(), "bench", "replay.update")
		var st *frt.UpdateStats
		var err error
		apply = append(apply, ms(tr.do(root, "frt", "dyn.apply", func(*span) { st, err = rep.dyn.ApplyEdits(script.step(step)) })))
		if err != nil {
			return nil, fmt.Errorf("replaying update %d: %w", step, err)
		}
		var idx *frt.OracleIndex
		index = append(index, ms(tr.do(root, "frt", "index.build", func(*span) { idx, err = rep.dyn.Ensemble().Index() })))
		tr.end(root)
		if err != nil {
			return nil, err
		}
		recomputed += st.RecomputedNodes
		affected += st.AffectedTrees
		iters += st.Iterations
		if bc := checkpoints[step+1]; bc != nil {
			mi, me, _ := compareBatches(res, fmt.Sprintf("serve-update after %d updates", step+1), idx, bc, tr)
			minUs, medUs = append(minUs, mi...), append(medUs, me...)
		}
	}

	rss := env.close()
	res.set("setup_s", median(env.setups), "s", len(env.setups))
	// The operation is one whole script cycle: the six update kinds differ
	// several-fold in cost, and a quantile of single updates would jump
	// between kinds.
	var cycles []float64
	for c := 0; c+6 <= len(lat); c += 6 {
		cycles = append(cycles, sum(lat[c:c+6]))
	}
	cycle := calmLow(cycles)
	res.set("op_p50_ms", cycle, "ms", len(cycles))
	res.detail["read_p90_ms"] = readP90
	res.detail["read_p99_ms"] = readP99
	res.set("ops_per_s", 6*1000/cycle, "1/s", len(cycles))
	res.set("peak_rss_mb", rss, "MB", 1)
	res.detail["update_p50_ms"] = median(lat)
	res.detail["update_p90_ms"] = quantile(lat, 0.9)
	res.detail["updates"] = len(lat)
	res.detail["read_invocations"] = len(reads)
	if tr != nil {
		res.setLayer("dyn.apply_ms", median(apply), "ms", len(apply))
		res.setLayer("dyn.index_build_ms", median(index), "ms", len(index))
		res.setLayer("dyn.recomputed_nodes", float64(recomputed), "count", sz.ReplayUpdates)
		res.setLayer("dyn.affected_trees", float64(affected), "count", sz.ReplayUpdates)
		res.setLayer("dyn.repair_iters", float64(iters), "count", sz.ReplayUpdates)
		res.setLayer("index.minbatch_us", median(minUs), "us", len(minUs))
		res.setLayer("index.medianbatch_us", median(medUs), "us", len(medUs))
	}
	return res, nil
}

// scenarioCables is the cable catalogue parmbfd -client -mode buyatbulk
// sends; the benchmark's own check request uses the same.
var scenarioCables = []buyatbulk.CableType{{Capacity: 1, Cost: 1}, {Capacity: 4, Cost: 2.5}, {Capacity: 16, Cost: 6}}

// runScenarios: the application tier. After one untimed /route warms the
// routing tables, two closed-loop clients run /kmedian, then /buyatbulk,
// then /route through parmbfd -client. Afterwards one request of each kind
// is compared with the same solver run in-process on the replica ensemble.
func runScenarios(ctx context.Context, cfg *config, tr *tracer) (*result, error) {
	sz := cfg.sz
	res := newResult()
	env, err := startServe(ctx, cfg, tr, res, sz.ScenN, sz.ScenK)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep, err := buildReplica(cfg, env.g, sz.ScenK, tr, res, false)
	if err != nil {
		return nil, err
	}
	n := env.g.N()
	rng := par.NewRNG(cfg.seed ^ 0xa995)
	routePairs := randomPairs(n, sz.RoutePairs, rng)
	var routeGot routeResp
	cold := tr.do(nil, "parmbfd", "http.route_cold", func(*span) {
		err = env.api.post(ctx, "/route", routeReq{Pairs: wirePairs(routePairs)}, &routeGot)
	})
	if err != nil {
		return nil, err
	}
	res.detail["route_cold_ms"] = ms(cold)

	// /buyatbulk is ~30× slower than /kmedian, so it gets most of the time.
	modes := []struct {
		mode  string
		batch int
		share float64
	}{{"kmedian", 1, 0.2}, {"buyatbulk", sz.Demands, 0.6}, {"route", sz.RoutePairs, 0.2}}
	var roundMs, secsPerRound float64
	var requests int
	t0 := time.Now()
	phaseEnd := t0
	for i, m := range modes {
		phaseEnd = phaseEnd.Add(time.Duration(m.share * cfg.seconds * float64(time.Second)))
		ss, err := clientLoop(ctx, cfg, env.d.url, m.mode, sz.ScenRequests[i], m.batch, 2, cfg.seed<<20+uint64(i)<<16,
			func() bool { return ctx.Err() != nil || time.Now().After(phaseEnd) })
		if err != nil {
			return nil, err
		}
		p50, p90, p99, _, rate := summarize(res, ss)
		roundMs += p50
		secsPerRound += 1 / rate
		res.detail[m.mode+"_p50_ms"] = p50
		res.detail[m.mode+"_p90_ms"] = p90
		res.detail[m.mode+"_invocations"] = len(ss)
		requests += len(ss) * sz.ScenRequests[i]
		if m.mode == "route" {
			res.detail["route_p99_ms"] = p99
		}
	}

	if err := checkScenarios(ctx, cfg, res, env, rep, routePairs, &routeGot, rng, tr); err != nil {
		return nil, err
	}
	checkStretch(cfg, res, env.g, rep, rng)

	rss := env.close()
	res.set("setup_s", median(env.setups), "s", len(env.setups))
	res.set("op_p50_ms", roundMs, "ms", requests)
	res.set("ops_per_s", 1/secsPerRound, "1/s", requests)
	res.set("peak_rss_mb", rss, "MB", 1)
	return res, nil
}

func wirePairs(ps []frt.Pair) [][2]int64 {
	out := make([][2]int64, len(ps))
	for i, p := range ps {
		out[i] = [2]int64{int64(p.U), int64(p.V)}
	}
	return out
}

// checkScenarios compares one /kmedian, one /buyatbulk and the warm-up
// /route answer with the same solvers run in-process on the replica — the
// trees the server holds — and, traced, records the solvers' time and heap
// allocation as the apps layer.
func checkScenarios(ctx context.Context, cfg *config, res *result, env *serveEnv, rep *replica,
	routePairs []frt.Pair, routeGot *routeResp, rng *par.RNG, tr *tracer) error {
	sz := cfg.sz
	n := env.g.N()
	appCall := func(name string, f func() error) (time.Duration, float64, error) {
		a0 := allocatedBytes()
		var err error
		d := tr.do(nil, "apps", name, func(*span) { err = f() })
		return d, float64(allocatedBytes()-a0) / mib, err
	}

	seed := rng.Uint64()
	var km kmedianResp
	if err := env.api.post(ctx, "/kmedian", kmedianReq{K: sz.KMedianK, Seed: seed}, &km); err != nil {
		return err
	}
	var kmWant *kmedian.Result
	kmD, kmMB, err := appCall("apps.kmedian", func() (err error) {
		kmWant, err = kmedian.Solve(env.g, sz.KMedianK, kmedian.Options{RNG: par.NewRNG(seed), Ensemble: rep.ens})
		return err
	})
	if err != nil {
		return err
	}
	res.check(math.Float64bits(km.Cost) == math.Float64bits(kmWant.Cost) && equalNodes(km.Centers, kmWant.Centers),
		"/kmedian differs from kmedian.Solve on the replica")

	demands := make([]buyatbulk.Demand, sz.Demands)
	wire := buyAtBulkReq{Demands: make([]wireDemand, sz.Demands)}
	for i := range demands {
		demands[i] = buyatbulk.Demand{S: graph.Node(rng.Intn(n)), T: graph.Node(rng.Intn(n)), Amount: 1 + rng.Float64()*3}
		wire.Demands[i] = wireDemand{S: int64(demands[i].S), T: int64(demands[i].T), Amount: demands[i].Amount}
	}
	for _, c := range scenarioCables {
		wire.Cables = append(wire.Cables, wireCable{Capacity: c.Capacity, Cost: c.Cost})
	}
	var bb buyAtBulkResp
	if err := env.api.post(ctx, "/buyatbulk", wire, &bb); err != nil {
		return err
	}
	var bbWant *buyatbulk.Solution
	bbD, bbMB, err := appCall("apps.buyatbulk", func() (err error) {
		bbWant, err = buyatbulk.Solve(env.g, demands, scenarioCables, buyatbulk.Options{Ensemble: rep.ens})
		return err
	})
	if err != nil {
		return err
	}
	// buyatbulk.Solve emits purchases in map order and sums the cost in that
	// order, so the plan is compared as a set and the cost to rounding.
	got := make([]buyatbulk.Purchase, len(bb.Purchases))
	for i, p := range bb.Purchases {
		got[i] = buyatbulk.Purchase{U: graph.Node(p.U), V: graph.Node(p.V), Cable: p.Cable, Count: p.Count}
	}
	same := math.Abs(bb.Cost-bbWant.Cost) <= 1e-9*bbWant.Cost &&
		slices.Equal(sortedPurchases(got), sortedPurchases(bbWant.Purchases))
	res.check(same, "/buyatbulk differs from buyatbulk.Solve on the replica")

	var tables *routing.Tables
	rtD, rtMB, err := appCall("apps.routing_build", func() (err error) {
		tables, err = routing.Build(env.g, routing.Options{Ensemble: rep.ens})
		return err
	})
	if err != nil {
		return err
	}
	var routes []*routing.RouteResult
	rbD, _, err := appCall("apps.route_batch", func() (err error) {
		routes, err = tables.RouteBatch(routePairs)
		return err
	})
	if err != nil {
		return err
	}
	same = len(routes) == len(routeGot.Routes)
	for i := 0; same && i < len(routes); i++ {
		g, w := routeGot.Routes[i], routes[i]
		same = equalNodes(g.Path, w.Path) && g.Tree == w.Tree &&
			math.Float64bits(g.Length) == math.Float64bits(w.Length) &&
			math.Float64bits(g.TreeDist) == math.Float64bits(w.TreeDist)
	}
	res.check(same, "/route differs from routing.RouteBatch on the replica")

	if tr != nil {
		res.setLayer("apps.kmedian_ms", ms(kmD), "ms", 1)
		res.setLayer("apps.buyatbulk_ms", ms(bbD), "ms", 1)
		res.setLayer("apps.routing_build_s", rtD.Seconds(), "s", 1)
		res.setLayer("apps.route_batch_ms", ms(rbD), "ms", 1)
		res.setLayer("apps.kmedian_alloc_mb", kmMB, "MB", 1)
		res.setLayer("apps.buyatbulk_alloc_mb", bbMB, "MB", 1)
		res.setLayer("apps.routing_alloc_mb", rtMB, "MB", 1)
	}
	return nil
}

func sortedPurchases(ps []buyatbulk.Purchase) []buyatbulk.Purchase {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b buyatbulk.Purchase) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.Cable, b.Cable), cmp.Compare(a.Count, b.Count))
	})
	return out
}

func equalNodes(got []int64, want []graph.Node) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != int64(want[i]) {
			return false
		}
	}
	return true
}
