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
// Endpoints (identical on server and router):
//
//	GET  /healthz                       liveness (router: fleet health)
//	GET  /stats                         shape + query counters
//	GET  /dist?u=4&v=9[&stat=median]    one estimate (default stat=min)
//	POST /batch                         {"pairs":[[u,v],…],"stat":"min"}
//	                                    → {"dists":[…]}
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
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
	)
	start := time.Now()
	switch {
	case *load != "":
		if *dynamic {
			// A snapshot holds only the trees, not the LE-list fixpoint state
			// incremental repair resumes from.
			fail(fmt.Errorf("-dynamic requires building from a graph (-in or -gen), not -load"))
		}
		var err error
		ens, meta, err = frt.ReadSnapshotFile(*load)
		if err != nil {
			fail(err)
		}
		fmt.Printf("snapshot %s: n=%d m=%d K=%d loaded in %v\n",
			*load, meta.GraphNodes, meta.GraphEdges, len(ens.Trees), time.Since(start).Round(time.Millisecond))
	case *dynamic:
		rng := par.NewRNG(*seed)
		var err error
		g, err = graph.Load(*in, *gen, *n, *m, rng)
		if err != nil {
			fail(err)
		}
		fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
		dyn, err = frt.NewDynamicEnsemble(g, *trees, rng, nil)
		if err != nil {
			fail(err)
		}
		ens, meta = dyn.Ensemble(), frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}
		fmt.Printf("pipeline (direct, dynamic): K=%d trees built in %v\n", len(ens.Trees), time.Since(start).Round(time.Millisecond))
	default:
		rng := par.NewRNG(*seed)
		var err error
		g, err = graph.Load(*in, *gen, *n, *m, rng)
		if err != nil {
			fail(err)
		}
		fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
		var err2 error
		ens, meta, err2 = buildEnsemble(g, *trees, rng)
		if err2 != nil {
			fail(err2)
		}
		fmt.Printf("pipeline: K=%d trees built in %v\n", len(ens.Trees), time.Since(start).Round(time.Millisecond))
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

// listenAndServe serves h until the listener fails or the process receives
// SIGINT/SIGTERM, then shuts down gracefully: the listener closes at once
// (the router's health probes and shard retries see connection refused and
// stop cleanly), in-flight requests — including a /batch mid-merge or an
// /update mid-repair — get up to drain to complete, and only then does
// onStopped (e.g. the router's health-loop teardown) run. A nil error means
// a clean signal-initiated exit.
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

	bufs sync.Pool // *[]float64 response buffers
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
	s.bufs.New = func() any { b := make([]float64, 0, 1024); return &b }
	return s, nil
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /dist", s.handleDist)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("POST /kmedian", s.handleKMedian)
	mux.HandleFunc("POST /buyatbulk", s.handleBuyAtBulk)
	mux.HandleFunc("POST /route", s.handleRoute)
	return mux
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.state.Load()
	writeJSON(w, http.StatusOK, map[string]any{
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
	})
}

func (s *server) handleDist(w http.ResponseWriter, r *http.Request) {
	st := s.state.Load()
	u, err1 := parseNode(r.URL.Query().Get("u"), st.n)
	v, err2 := parseNode(r.URL.Query().Get("v"), st.n)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, errBadNode,
			"u and v must be node ids in [0, n)", map[string]any{"n": st.n})
		return
	}
	var d float64
	switch stat := r.URL.Query().Get("stat"); stat {
	case "", "min":
		d = st.idx.Min(u, v)
	case "median":
		d = st.idx.Median(u, v)
	default:
		writeError(w, http.StatusBadRequest, errBadStat,
			"stat must be min or median", map[string]any{"stat": stat})
		return
	}
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"u": u, "v": v, "dist": d})
}

// batchRequest is the /batch payload: pairs of node ids, the estimator to
// apply (min by default), and — for the router-facing "pertree" estimator —
// the half-open tree shard to answer for.
type batchRequest struct {
	Pairs [][2]int64 `json:"pairs"`
	Stat  string     `json:"stat"`
	Trees *[2]int    `json:"trees,omitempty"`
}

type batchResponse struct {
	Dists []float64 `json:"dists"`
	// Trees echoes the shard answered for a pertree request (pair-major:
	// Dists[i*(hi-lo) + (t-lo)] is pair i in tree t).
	Trees *[2]int `json:"trees,omitempty"`
}

// decodeBatch parses and validates a /batch body against node count n,
// writing the structured error response itself on failure. The body is read
// through http.MaxBytesReader, which (unlike a bare LimitReader) also closes
// the connection on overflow so the client cannot keep streaming, and lets
// the decode error be classified as a 413.
func decodeBatch(w http.ResponseWriter, r *http.Request, n int) ([]frt.Pair, *batchRequest, bool) {
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeDecodeError(w, err)
		return nil, nil, false
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, errEmptyPairs, "pairs must be non-empty", nil)
		return nil, nil, false
	}
	if len(req.Pairs) > maxBatchPairs {
		writeError(w, http.StatusRequestEntityTooLarge, errBatchTooLarge,
			fmt.Sprintf("batch of %d pairs exceeds cap %d", len(req.Pairs), maxBatchPairs),
			map[string]any{"max": maxBatchPairs, "got": len(req.Pairs)})
		return nil, nil, false
	}
	nn := int64(n)
	pairs := make([]frt.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		if p[0] < 0 || p[0] >= nn || p[1] < 0 || p[1] >= nn {
			writeError(w, http.StatusBadRequest, errPairOutOfRange,
				fmt.Sprintf("pair %d = [%d, %d] out of range", i, p[0], p[1]),
				map[string]any{"index": i, "pair": p, "n": n})
			return nil, nil, false
		}
		pairs[i] = frt.Pair{U: graph.Node(p[0]), V: graph.Node(p[1])}
	}
	return pairs, &req, true
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st := s.state.Load()
	pairs, req, ok := decodeBatch(w, r, st.n)
	if !ok {
		return
	}
	bufp := s.bufs.Get().(*[]float64)
	defer s.bufs.Put(bufp)
	var out []float64
	resp := batchResponse{}
	switch req.Stat {
	case "", "min":
		out = st.idx.MinBatch(pairs, *bufp)
	case "median":
		out = st.idx.MedianBatch(pairs, *bufp)
	case "pertree":
		lo, hi := 0, st.idx.NumTrees()
		if req.Trees != nil {
			lo, hi = req.Trees[0], req.Trees[1]
		}
		var err error
		out, err = st.idx.PerTreeBatch(pairs, lo, hi, *bufp)
		if err != nil {
			writeError(w, http.StatusBadRequest, errBadTreeRange,
				err.Error(), map[string]any{"trees": [2]int{lo, hi}, "k": st.idx.NumTrees()})
			return
		}
		resp.Trees = &[2]int{lo, hi}
	default:
		writeError(w, http.StatusBadRequest, errBadStat,
			"stat must be min, median, or pertree", map[string]any{"stat": req.Stat})
		return
	}
	*bufp = out[:0]
	s.queries.Add(int64(len(pairs)))
	s.batches.Add(1)
	resp.Dists = out
	writeJSON(w, http.StatusOK, resp)
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

// Error codes of the structured error schema. Every non-200 response body is
//
//	{"error": {"code": <one of these>, "message": <human text>,
//	           "details": <code-specific object, may be absent>}}
//
// so clients branch on a stable machine-readable code instead of matching
// message prose.
const (
	errBadJSON             = "bad_json"
	errEmptyPairs          = "empty_pairs"
	errBatchTooLarge       = "batch_too_large"
	errBodyTooLarge        = "body_too_large"
	errPairOutOfRange      = "pair_out_of_range"
	errBadStat             = "bad_stat"
	errBadNode             = "bad_node"
	errBadTreeRange        = "bad_tree_range"
	errBadEdit             = "bad_edit"
	errUpdateUnsupported   = "update_unsupported"
	errOverloaded          = "overloaded"
	errUpstreamUnavailable = "upstream_unavailable"
	errBadScenario         = "bad_scenario"
	errScenarioUnavailable = "scenario_unavailable"
)

// writeDecodeError classifies a JSON-decode failure: a body that tripped
// http.MaxBytesReader is a 413 with its own code (the client must shrink the
// request, not fix its syntax); everything else is a 400 bad_json.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			map[string]any{"maxBytes": tooLarge.Limit})
		return
	}
	writeError(w, http.StatusBadRequest, errBadJSON, "bad JSON: "+err.Error(), nil)
}

type apiError struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string, details map[string]any) {
	writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: msg, Details: details}})
}

// clientSummary is the machine-readable record of one load-generation run
// (-json appends it as a line, the same one-object-per-line convention the
// BENCH_*.json trajectories use).
type clientSummary struct {
	Date          string  `json:"date"`
	Target        string  `json:"target"`
	Mode          string  `json:"mode"`
	Requests      int     `json:"requests"`
	Batch         int     `json:"batch"`
	Concurrency   int     `json:"concurrency"`
	Failed        int     `json:"failed"`
	PairsPerSec   float64 `json:"pairsPerSec"`
	BatchesPerSec float64 `json:"batchesPerSec"`
	P50Us         int64   `json:"p50us"`
	P90Us         int64   `json:"p90us"`
	P99Us         int64   `json:"p99us"`
	MaxUs         int64   `json:"maxus"`
}

// runClient floods one target endpoint — selected by -mode — with pre-drawn
// request bodies from `concurrency` connections and reports throughput and
// latency quantiles. It is the load harness for both a single server and a
// router-fronted fleet (the API is identical): "batch" floods /batch with
// random pairs, "kmedian"/"buyatbulk"/"route" flood the application-scenario
// endpoints with random instances.
func runClient(target, mode string, requests, batch, concurrency int, seed uint64, jsonOut string) error {
	if requests < 1 || batch < 1 || concurrency < 1 {
		return fmt.Errorf("-requests, -batch, and -concurrency must all be ≥ 1 (got %d, %d, %d)",
			requests, batch, concurrency)
	}
	// One idle connection per worker, so the measured quantiles are server
	// batch latency rather than TCP handshakes (DefaultTransport keeps only
	// 2 idle conns per host), and a hung server fails the run instead of
	// blocking it forever.
	hc := &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        concurrency,
			MaxIdleConnsPerHost: concurrency,
		},
	}
	stats, err := fetchStats(hc, target)
	if err != nil {
		return fmt.Errorf("fetching %s/stats: %w", target, err)
	}
	n := int(stats.Nodes)
	if n < 2 {
		return fmt.Errorf("server graph too small: n=%d", n)
	}
	fmt.Printf("target %s: n=%d trees=%d mode=%s\n", target, n, stats.Trees, mode)

	// Pre-draw every request body so the measured loop is pure I/O + server.
	path, bodies, check, err := buildWorkload(mode, par.NewRNG(seed), n, requests, batch)
	if err != nil {
		return err
	}

	latencies := make([]time.Duration, requests)
	errs := make([]error, requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				t0 := time.Now()
				errs[i] = postChecked(hc, target+path, bodies[i], check)
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pairs := requests * batch
	sum := clientSummary{
		Date:          time.Now().UTC().Format(time.RFC3339),
		Target:        target,
		Mode:          mode,
		Requests:      requests,
		Batch:         batch,
		Concurrency:   concurrency,
		Failed:        failed,
		PairsPerSec:   float64(pairs) / elapsed.Seconds(),
		BatchesPerSec: float64(requests) / elapsed.Seconds(),
		P50Us:         latencies[requests/2].Microseconds(),
		P90Us:         latencies[requests*9/10].Microseconds(),
		P99Us:         latencies[requests*99/100].Microseconds(),
		MaxUs:         latencies[requests-1].Microseconds(),
	}
	fmt.Printf("sent %d batches × %d pairs in %v (%d failed)\n", requests, batch, elapsed.Round(time.Millisecond), failed)
	fmt.Printf("throughput: %.0f pairs/s, %.1f batches/s\n", sum.PairsPerSec, sum.BatchesPerSec)
	fmt.Printf("latency: p50 %v  p90 %v  p99 %v  max %v\n",
		latencies[requests/2], latencies[requests*9/10], latencies[requests*99/100], latencies[requests-1])
	if jsonOut != "" {
		if err := appendJSONLine(jsonOut, sum); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed: first error: %w", failed, requests, firstError(errs))
	}
	return nil
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type statsResponse struct {
	Nodes int64 `json:"nodes"`
	Trees int64 `json:"trees"`
}

func fetchStats(hc *http.Client, target string) (*statsResponse, error) {
	resp, err := hc.Get(target + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	var s statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// buildWorkload pre-draws `requests` bodies for one client -mode and returns
// the endpoint path plus a response check. batch sizes the instances: pairs
// per /batch and /route request, demands per /buyatbulk request; /kmedian
// solves once per request with a varying seed, so batch is ignored there.
func buildWorkload(mode string, rng *par.RNG, n, requests, batch int) (string, [][]byte, func(status int, data []byte) error, error) {
	bodies := make([][]byte, requests)
	fill := func(body func(i int) any) error {
		for i := range bodies {
			b, err := json.Marshal(body(i))
			if err != nil {
				return err
			}
			bodies[i] = b
		}
		return nil
	}
	randomPairs := func(count int) [][2]int64 {
		pairs := make([][2]int64, count)
		for j := range pairs {
			pairs[j] = [2]int64{int64(rng.Intn(n)), int64(rng.Intn(n))}
		}
		return pairs
	}
	switch mode {
	case "batch":
		err := fill(func(int) any {
			return batchRequest{Pairs: randomPairs(batch), Stat: "min"}
		})
		check := func(status int, data []byte) error {
			var br batchResponse
			if err := checkOK(status, data, &br); err != nil {
				return err
			}
			if len(br.Dists) != batch {
				return fmt.Errorf("got %d dists, want %d", len(br.Dists), batch)
			}
			return nil
		}
		return "/batch", bodies, check, err
	case "kmedian":
		k := 8
		if k > n {
			k = n
		}
		err := fill(func(i int) any {
			return kmedianRequest{K: k, Seed: uint64(i + 1)}
		})
		check := func(status int, data []byte) error {
			var kr kmedianResponse
			if err := checkOK(status, data, &kr); err != nil {
				return err
			}
			if len(kr.Centers) != k {
				return fmt.Errorf("got %d centers, want %d", len(kr.Centers), k)
			}
			return nil
		}
		return "/kmedian", bodies, check, err
	case "buyatbulk":
		// A fixed three-tier economies-of-scale catalogue; demands are random
		// unit-ish flows, so every request exercises the LCA flow accumulation
		// and the cable loader.
		cables := []wireCable{{Capacity: 1, Cost: 1}, {Capacity: 4, Cost: 2.5}, {Capacity: 16, Cost: 6}}
		err := fill(func(int) any {
			demands := make([]wireDemand, batch)
			for j := range demands {
				demands[j] = wireDemand{
					S:      int64(rng.Intn(n)),
					T:      int64(rng.Intn(n)),
					Amount: 1 + rng.Float64()*3,
				}
			}
			return buyAtBulkRequest{Demands: demands, Cables: cables}
		})
		check := func(status int, data []byte) error {
			var br buyAtBulkResponse
			if err := checkOK(status, data, &br); err != nil {
				return err
			}
			if br.Cost <= 0 {
				return fmt.Errorf("non-positive cost %g", br.Cost)
			}
			return nil
		}
		return "/buyatbulk", bodies, check, err
	case "route":
		pairs := batch
		if pairs > maxRoutePairs {
			pairs = maxRoutePairs
		}
		err := fill(func(int) any {
			return routeRequest{Pairs: randomPairs(pairs)}
		})
		check := func(status int, data []byte) error {
			var rr routeResponse
			if err := checkOK(status, data, &rr); err != nil {
				return err
			}
			if len(rr.Routes) != pairs {
				return fmt.Errorf("got %d routes, want %d", len(rr.Routes), pairs)
			}
			return nil
		}
		return "/route", bodies, check, err
	default:
		return "", nil, nil, fmt.Errorf("-mode must be batch, kmedian, buyatbulk, or route (got %q)", mode)
	}
}

// checkOK decodes a 200 response into out, surfacing the structured error
// code on anything else.
func checkOK(status int, data []byte, out any) error {
	if status != http.StatusOK {
		var er errorResponse
		if json.Unmarshal(data, &er) == nil && er.Error.Code != "" {
			return fmt.Errorf("status %d: %s (%s)", status, er.Error.Message, er.Error.Code)
		}
		return fmt.Errorf("status %d", status)
	}
	return json.Unmarshal(data, out)
}

func postChecked(hc *http.Client, url string, body []byte, check func(status int, data []byte) error) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return check(resp.StatusCode, data)
}
