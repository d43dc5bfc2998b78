// Command parmbfd is the FRT distance-oracle serving tier. A single server
// builds (or loads) an Embedder ensemble, preprocesses it into an
// frt.OracleIndex, and serves single and batched distance queries over HTTP;
// a router shards the ensemble's K trees across a fleet of such servers and
// merges their partial per-tree answers, so query throughput scales out
// beyond one process.
//
// Build-and-serve (the whole pipeline at startup — seconds and up):
//
//	parmbfd -addr :8337 -gen random -n 4096 -m 16384 -trees 16
//	parmbfd -addr :8337 -in graph.txt -trees 8
//
// Snapshot persistence (cold-start in milliseconds by loading, not
// rebuilding; -save also writes the snapshot that -load serves):
//
//	parmbfd -gen random -n 4096 -trees 16 -save oracle.snap
//	parmbfd -addr :8337 -load oracle.snap
//
// Sharded fleet (every worker loads the full snapshot; the router assigns
// each worker a contiguous tree shard, fans /batch out with bounded
// in-flight backpressure, retries failed shards on surviving replicas, and
// merges Min/Median server-side — bitwise identical to one big server):
//
//	parmbfd -addr :8341 -load oracle.snap &
//	parmbfd -addr :8342 -load oracle.snap &
//	parmbfd -addr :8337 -router -workers http://localhost:8341,http://localhost:8342
//
// Endpoints (identical on server and router: both register the endpoints
// table in endpoints.go, the one place a route is defined — its method and
// path, its decode-and-validate step, and its worker and router steps):
//
//	GET  /healthz                       liveness (router: fleet health)
//	GET  /stats                         shape + query counters
//	GET  /dist?u=4&v=9[&stat=median]    one estimate (default stat=min)
//	POST /batch                         {"pairs":[[u,v],…],"stat":"min"}
//	                                    → {"dists":[…]}
//	POST /update                        {"edits":[…]} live edits (-dynamic;
//	                                    router: applied on every worker)
//	POST /kmedian                       {"k":4,"seed":7} → centers + exact
//	                                    cost (router: per-tree shard fan-out,
//	                                    cheapest plan wins)
//	POST /buyatbulk                     {"demands":[…],"cables":[…]} →
//	                                    purchase plan + cost
//	POST /route                         {"pairs":[[u,v],…]} → walkable paths
//	                                    with tree certificates
//
// Scenario endpoints need the source graph, so a server started with -load
// alone answers them 409 scenario_unavailable; build-and-serve (or
// -dynamic) servers answer them, and the router proxies /buyatbulk and
// /route round-robin with the usual failover.
//
// Workers additionally answer the partial-ensemble query the router fans
// out: {"stat":"pertree","trees":[lo,hi]} returns the individual tree
// distances of trees lo≤t<hi, pair-major.
//
// Errors are structured JSON: {"error":{"code":…,"message":…,"details":…}}.
// See the README's serving section for the code list.
//
// Load-generating client (measures server-side batched throughput; -json
// appends a machine-readable summary line, e.g. for BENCH_oracle.json;
// -mode picks the workload: batch distance queries or the kmedian /
// buyatbulk / route scenario endpoints):
//
//	parmbfd -client -target http://localhost:8337 -requests 200 -batch 256 -concurrency 8
//	parmbfd -client -target http://localhost:8337 -mode route -requests 50 -batch 128
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parmbf/internal/apps/routing"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// maxBatchPairs caps one /batch request: large enough to amortise, small
// enough that a hostile request cannot make the server allocate without
// bound.
const maxBatchPairs = 1 << 16

// maxBodyBytes caps every request body at the transport layer
// (http.MaxBytesReader): a hostile client cannot stream an unbounded body at
// the JSON decoder regardless of what the payload claims to contain.
const maxBodyBytes = 1 << 24

func main() {
	var (
		addr  = flag.String("addr", ":8337", "listen address (server and router modes)")
		in    = flag.String("in", "", "read graph from file (edge-list format)")
		gen   = flag.String("gen", "random", "generator: random | grid | path | cycle | geometric | lollipop | powerlaw")
		n     = flag.Int("n", 4096, "generated graph size")
		m     = flag.Int("m", 0, "generated edge count (random generator; default 4n)")
		seed  = flag.Uint64("seed", 1, "random seed")
		trees = flag.Int("trees", 16, "ensemble size K")

		save = flag.String("save", "", "write the built ensemble to a snapshot file, then serve")
		load = flag.String("load", "", "serve from a snapshot file instead of rebuilding the pipeline")

		dynamic = flag.Bool("dynamic", false, "build via the direct LE-list pipeline and accept live edits on POST /update")
		drain   = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline for in-flight requests")

		routerMode    = flag.Bool("router", false, "run as a sharding router over -workers instead of serving an ensemble")
		workers       = flag.String("workers", "", "comma-separated worker base URLs (router mode)")
		inflight      = flag.Int("inflight", 64, "max in-flight upstream requests across all /batch fan-outs (router mode)")
		workerTimeout = flag.Duration("worker-timeout", 5*time.Second, "per-attempt upstream timeout (router mode)")
		healthEvery   = flag.Duration("health-interval", 2*time.Second, "worker health-probe interval (router mode)")

		client      = flag.Bool("client", false, "run as load-generating client instead of server")
		mode        = flag.String("mode", "batch", "client workload: batch | kmedian | buyatbulk | route (client mode)")
		target      = flag.String("target", "http://localhost:8337", "server URL (client mode)")
		requests    = flag.Int("requests", 100, "batch requests to send (client mode)")
		batch       = flag.Int("batch", 256, "pairs per batch request (client mode)")
		concurrency = flag.Int("concurrency", 4, "concurrent client connections (client mode)")
		jsonOut     = flag.String("json", "", "append a JSON summary line of the client run to this file (client mode)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	if *client {
		if err := runClient(*target, *mode, *requests, *batch, *concurrency, *seed, *jsonOut); err != nil {
			fail(err)
		}
		return
	}

	if *routerMode {
		urls := splitWorkerURLs(*workers)
		if len(urls) == 0 {
			fail(fmt.Errorf("-router needs -workers url1,url2,…"))
		}
		rt, err := newRouter(urls, *inflight, *workerTimeout, *healthEvery)
		if err != nil {
			fail(err)
		}
		fmt.Printf("router: n=%d trees=%d over %d workers, shards %v\n", rt.n, rt.k, len(rt.workers), rt.shards)
		fmt.Printf("serving on %s\n", *addr)
		if err := listenAndServe(*addr, rt.mux(), *drain, rt.Close); err != nil {
			fail(err)
		}
		return
	}

	var (
		ens  *frt.Ensemble
		meta frt.SnapshotMeta
		dyn  *frt.DynamicEnsemble
		g    *graph.Graph
		err  error
	)
	start := time.Now()
	if *load != "" {
		if *dynamic {
			// A snapshot holds only the trees, not the LE-list fixpoint state
			// incremental repair resumes from.
			fail(fmt.Errorf("-dynamic requires building from a graph (-in or -gen), not -load"))
		}
		if ens, meta, err = frt.ReadSnapshotFile(*load); err != nil {
			fail(err)
		}
		fmt.Printf("snapshot %s: n=%d m=%d K=%d loaded in %v\n",
			*load, meta.GraphNodes, meta.GraphEdges, len(ens.Trees), time.Since(start).Round(time.Millisecond))
	} else {
		rng := par.NewRNG(*seed)
		if g, err = graph.Load(*in, *gen, *n, *m, rng); err != nil {
			fail(err)
		}
		fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
		pipeline := "pipeline"
		if *dynamic {
			pipeline = "pipeline (direct, dynamic)"
			if dyn, err = frt.NewDynamicEnsemble(g, *trees, rng, nil); err == nil {
				ens, meta = dyn.Ensemble(), frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}
			}
		} else {
			ens, meta, err = buildEnsemble(g, *trees, rng)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: K=%d trees built in %v\n", pipeline, len(ens.Trees), time.Since(start).Round(time.Millisecond))
	}
	if *save != "" {
		t0 := time.Now()
		if err := frt.WriteSnapshotFile(*save, ens, meta); err != nil {
			fail(err)
		}
		fmt.Printf("snapshot saved to %s in %v\n", *save, time.Since(t0).Round(time.Millisecond))
	}
	t0 := time.Now()
	s, err := newServer(g, ens, meta, dyn)
	if err != nil {
		fail(err)
	}
	st := s.state.Load()
	fmt.Printf("oracle: K=%d trees, max depth %d, indexed in %v (total cold start %v)\n",
		st.idx.NumTrees(), st.idx.MaxDepth(), time.Since(t0).Round(time.Millisecond),
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("serving on %s\n", *addr)
	if err := listenAndServe(*addr, s.mux(), *drain, nil); err != nil {
		fail(err)
	}
}

func splitWorkerURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	return urls
}

// listenAndServe listens on addr and serves h there until the listener
// fails or a signal stops it gracefully (see serveGracefully).
func listenAndServe(addr string, h http.Handler, drain time.Duration, onStopped func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveGracefully(newHTTPServer(h), ln, drain, onStopped)
}

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler: h,
		// Serving-hardening timeouts: a slow-loris client (or one that
		// never finishes a /batch body) must not pin a connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveGracefully serves on ln until the listener fails or SIGINT/SIGTERM
// arrives. A signal closes the listener immediately — new connections are
// refused, so the router's health probes and shard retries against a
// stopping worker fail fast and move on — while in-flight requests
// (including a /batch mid-merge or an /update mid-repair) get up to drain to
// complete. onStopped (e.g. the router's health-loop teardown) runs after
// the drain. A nil error means a clean signal-initiated exit.
func serveGracefully(srv *http.Server, ln net.Listener, drain time.Duration, onStopped func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-errCh:
	case <-ctx.Done():
		stop() // a second signal kills immediately via the default handler
		fmt.Printf("signal received, draining in-flight requests (up to %v)\n", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		err = srv.Shutdown(sctx)
		cancel()
		<-errCh // Serve has returned ErrServerClosed
	}
	if onStopped != nil {
		onStopped()
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// serverState is one immutable serving snapshot: the indexed ensemble plus
// the graph shape and a monotonic version. Handlers load it exactly once per
// request through an atomic pointer, so every query is answered consistently
// against a single snapshot even while POST /update swaps in the next one —
// the bounded-staleness contract: a query admitted before a swap may answer
// from the pre-update index, never from a torn mix of the two.
type serverState struct {
	n, m    int // embedded graph shape (nodes, edges)
	version int64
	idx     *frt.OracleIndex
	ens     *frt.Ensemble
	// g is the embedded graph, retained only when the server built (or was
	// handed) it — the application scenarios (/kmedian, /buyatbulk, /route)
	// need the graph itself, not just the trees. A snapshot-loaded server has
	// g == nil and answers those endpoints with scenario_unavailable; pure
	// distance serving never touches g.
	g *graph.Graph
}

// server holds the current serving snapshot and the query counters. Each
// state snapshot is read-only after construction, so handlers share it
// without locking; the response buffers come from a pool. In static mode the
// graph itself is never retained — only its shape, so a snapshot-loaded
// server is indistinguishable from a freshly built one. In dynamic mode dyn
// retains the repairable fixpoint state; updateMu serialises updates.
type server struct {
	state   atomic.Pointer[serverState]
	started time.Time

	dyn      *frt.DynamicEnsemble // nil: static server, /update answers 409
	updateMu sync.Mutex           // serialises POST /update end to end

	// scenarioMu guards the lazily built oblivious-routing tables; they are
	// keyed by the serving-state version, so an /update invalidates them and
	// the next /route or /buyatbulk rebuilds against the new trees.
	scenarioMu    sync.Mutex
	routeTables   *routing.Tables
	routeTablesAt int64

	queries atomic.Int64 // pairs answered
	batches atomic.Int64 // /batch requests served
	updates atomic.Int64 // edit batches applied
}

// buildEnsemble runs the full shared pipeline once: hop set → simulated
// graph H → K concurrently sampled trees. This is the slow path a snapshot
// amortises away.
func buildEnsemble(g *graph.Graph, trees int, rng *par.RNG) (*frt.Ensemble, frt.SnapshotMeta, error) {
	e, err := frt.NewEmbedder(g, frt.Options{RNG: rng})
	if err != nil {
		return nil, frt.SnapshotMeta{}, err
	}
	ens, err := e.SampleEnsemble(trees)
	if err != nil {
		return nil, frt.SnapshotMeta{}, err
	}
	return ens, frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}, nil
}

// newServer indexes the ensemble and wires the handler state. It serves
// identically whether ens was freshly sampled or loaded from a snapshot;
// passing a non-nil dyn additionally enables POST /update, and passing the
// embedded graph g enables the application-scenario endpoints (nil g — the
// snapshot-loaded case — makes them answer scenario_unavailable).
func newServer(g *graph.Graph, ens *frt.Ensemble, meta frt.SnapshotMeta, dyn *frt.DynamicEnsemble) (*server, error) {
	idx, err := ens.Index()
	if err != nil {
		return nil, err
	}
	s := &server{dyn: dyn, started: time.Now()}
	s.state.Store(&serverState{n: idx.NumLeaves(), m: meta.GraphEdges, idx: idx, ens: ens, g: g})
	return s, nil
}

func (s *server) mux() *http.ServeMux { return newMux(s, nil) }

func (s *server) serveHealthz(context.Context, *serverState, any) (any, *apiError) {
	return map[string]string{"status": "ok"}, nil
}

func (s *server) serveStats(_ context.Context, st *serverState, _ any) (any, *apiError) {
	return map[string]any{
		"mode":      "server",
		"dynamic":   s.dyn != nil,
		"scenarios": st.g != nil,
		"nodes":     st.n,
		"edges":     st.m,
		"trees":     st.idx.NumTrees(),
		"maxDepth":  st.idx.MaxDepth(),
		"version":   st.version,
		"queries":   s.queries.Load(),
		"batches":   s.batches.Load(),
		"updates":   s.updates.Load(),
		"uptimeMs":  time.Since(s.started).Milliseconds(),
	}, nil
}

// batchRequest is the /batch payload: pairs of node ids, the estimator to
// apply (min by default), and — for the router-facing "pertree" estimator —
// the half-open tree shard to answer for. The decode step adds the pairs as
// graph nodes; dist marks the one-pair batch GET /dist decodes to, answered
// as /dist's one object.
type batchRequest struct {
	Pairs [][2]int64 `json:"pairs"`
	Stat  string     `json:"stat"`
	Trees *[2]int    `json:"trees,omitempty"`
	pairs []frt.Pair
	dist  bool
}

type batchResponse struct {
	Dists []float64 `json:"dists"`
	// Trees echoes the shard answered for a pertree request (pair-major:
	// Dists[i*(hi-lo) + (t-lo)] is pair i in tree t).
	Trees *[2]int `json:"trees,omitempty"`
}

// batchResponses pools /dist and /batch answers with their Dists buffers;
// the wrapper releases each once it has encoded it.
var batchResponses = sync.Pool{New: func() any { return &batchResponse{Dists: make([]float64, 0, 1024)} }}

func (b *batchResponse) release() {
	b.Dists, b.Trees = b.Dists[:0], nil
	batchResponses.Put(b)
}

type distResponse struct {
	Dist float64 `json:"dist"`
	U    int64   `json:"u"`
	V    int64   `json:"v"`
}

func countBatch(req any) (int64, int64) {
	if q := req.(*batchRequest); !q.dist {
		return int64(len(q.pairs)), 1
	}
	return 1, 0
}

// answer shapes a batch answer for the route that asked.
func (q *batchRequest) answer(resp *batchResponse) any {
	if !q.dist {
		return resp
	}
	defer resp.release()
	return distResponse{Dist: resp.Dists[0], U: q.Pairs[0][0], V: q.Pairs[0][1]}
}

func decodeDist(r *http.Request, n int) (any, *apiError) {
	u, err1 := parseNode(r.URL.Query().Get("u"), n)
	v, err2 := parseNode(r.URL.Query().Get("v"), n)
	if err1 != nil || err2 != nil {
		return nil, reject(http.StatusBadRequest, errBadNode,
			"u and v must be node ids in [0, n)", map[string]any{"n": n})
	}
	stat := r.URL.Query().Get("stat")
	if stat != "" && stat != "min" && stat != "median" {
		return nil, reject(http.StatusBadRequest, errBadStat,
			"stat must be min or median", map[string]any{"stat": stat})
	}
	return &batchRequest{Pairs: [][2]int64{{int64(u), int64(v)}}, Stat: stat,
		pairs: []frt.Pair{{U: u, V: v}}, dist: true}, nil
}

func decodeBatch(r *http.Request, n int) (any, *apiError) {
	q := &batchRequest{}
	if aerr := decodeJSON(r, q); aerr != nil {
		return nil, aerr
	}
	var aerr *apiError
	q.pairs, aerr = nodePairs(q.Pairs, n, maxBatchPairs, "batch of %d pairs exceeds cap %d")
	return q, aerr
}

// nodePairs checks a non-empty wire pair list against its cap max (what
// formats the 413) and every id against n, and converts it to graph nodes.
func nodePairs(wire [][2]int64, n, max int, what string) ([]frt.Pair, *apiError) {
	if len(wire) == 0 {
		return nil, reject(http.StatusBadRequest, errEmptyPairs, "pairs must be non-empty", nil)
	}
	if aerr := overCap(what, len(wire), max); aerr != nil {
		return nil, aerr
	}
	pairs := make([]frt.Pair, len(wire))
	for i, p := range wire {
		if !inRange(p[0], n) || !inRange(p[1], n) {
			return nil, reject(http.StatusBadRequest, errPairOutOfRange,
				fmt.Sprintf("pair %d = [%d, %d] out of range", i, p[0], p[1]),
				map[string]any{"index": i, "pair": p, "n": n})
		}
		pairs[i] = frt.Pair{U: graph.Node(p[0]), V: graph.Node(p[1])}
	}
	return pairs, nil
}

func (s *server) serveBatch(_ context.Context, st *serverState, req any) (any, *apiError) {
	q := req.(*batchRequest)
	resp := batchResponses.Get().(*batchResponse)
	switch q.Stat {
	case "", "min":
		resp.Dists = st.idx.MinBatch(q.pairs, resp.Dists)
	case "median":
		resp.Dists = st.idx.MedianBatch(q.pairs, resp.Dists)
	case "pertree":
		lo, hi := 0, st.idx.NumTrees()
		if q.Trees != nil {
			lo, hi = q.Trees[0], q.Trees[1]
		}
		out, err := st.idx.PerTreeBatch(q.pairs, lo, hi, resp.Dists)
		if err != nil {
			resp.release()
			return nil, reject(http.StatusBadRequest, errBadTreeRange,
				err.Error(), map[string]any{"trees": [2]int{lo, hi}, "k": st.idx.NumTrees()})
		}
		resp.Dists, resp.Trees = out, &[2]int{lo, hi}
	default:
		resp.release()
		return nil, reject(http.StatusBadRequest, errBadStat,
			"stat must be min, median, or pertree", map[string]any{"stat": q.Stat})
	}
	return q.answer(resp), nil
}

func parseNode(s string, n int) (graph.Node, error) {
	// strconv.Atoi rejects trailing garbage ("3.9", "4x") outright, where a
	// scanf-style parse would silently answer a different query.
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= n {
		return 0, fmt.Errorf("node %d out of range", v)
	}
	return graph.Node(v), nil
}
