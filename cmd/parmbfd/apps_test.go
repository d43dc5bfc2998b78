package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"parmbf/internal/apps/buyatbulk"
	"parmbf/internal/apps/kmedian"
	"parmbf/internal/apps/routing"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// testCables is a three-tier economies-of-scale catalogue shared by the
// /buyatbulk tests.
var testCables = []wireCable{{Capacity: 1, Cost: 1}, {Capacity: 4, Cost: 2.5}, {Capacity: 16, Cost: 6}}

func TestKMedianEndpoint(t *testing.T) {
	_, ts, g, _ := testServer(t)
	req := kmedianRequest{K: 4, Seed: 7}
	var first kmedianResponse
	if code := postJSONValue(t, ts.URL+"/kmedian", req, &first); code != http.StatusOK {
		t.Fatalf("kmedian: code %d", code)
	}
	if len(first.Centers) == 0 || len(first.Centers) > req.K {
		t.Fatalf("kmedian returned %d centers, want 1..%d", len(first.Centers), req.K)
	}
	if first.Candidates == 0 {
		t.Fatal("kmedian reported zero sampled candidates")
	}
	// The reported cost must be the exact evaluation of the reported centers.
	centers := make([]graph.Node, len(first.Centers))
	for i, c := range first.Centers {
		if c < 0 || c >= int64(g.N()) {
			t.Fatalf("center %d out of range", c)
		}
		centers[i] = graph.Node(c)
	}
	if want := kmedian.Cost(g, centers); first.Cost != want {
		t.Fatalf("reported cost %v, exact cost of reported centers %v", first.Cost, want)
	}
	// Same seed, same answer: the endpoint is reproducible.
	var second kmedianResponse
	postJSONValue(t, ts.URL+"/kmedian", req, &second)
	if second.Cost != first.Cost || len(second.Centers) != len(first.Centers) {
		t.Fatalf("same seed produced a different answer: %+v vs %+v", second, first)
	}
}

func TestBuyAtBulkEndpointMatchesDirectSolve(t *testing.T) {
	_, ts, g, ens := testServer(t)
	req := buyAtBulkRequest{
		Demands: []wireDemand{{S: 0, T: 31, Amount: 2}, {S: 5, T: 17, Amount: 1.5}, {S: 40, T: 3, Amount: 6}},
		Cables:  testCables,
	}
	var got buyAtBulkResponse
	if code := postJSONValue(t, ts.URL+"/buyatbulk", req, &got); code != http.StatusOK {
		t.Fatalf("buyatbulk: code %d", code)
	}
	if len(got.Purchases) == 0 || got.Cost <= 0 {
		t.Fatalf("degenerate solution: %d purchases, cost %v", len(got.Purchases), got.Cost)
	}
	// The endpoint must answer exactly what a direct solve over the server's
	// ensemble answers — it is a transport, not a different algorithm.
	demands := make([]buyatbulk.Demand, len(req.Demands))
	for i, d := range req.Demands {
		demands[i] = buyatbulk.Demand{S: graph.Node(d.S), T: graph.Node(d.T), Amount: d.Amount}
	}
	cables := make([]buyatbulk.CableType, len(req.Cables))
	for i, c := range req.Cables {
		cables[i] = buyatbulk.CableType{Capacity: c.Capacity, Cost: c.Cost}
	}
	want, err := buyatbulk.Solve(g, demands, cables, buyatbulk.Options{Ensemble: ens})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || len(got.Purchases) != len(want.Purchases) {
		t.Fatalf("endpoint cost %v (%d purchases), direct solve %v (%d purchases)",
			got.Cost, len(got.Purchases), want.Cost, len(want.Purchases))
	}
}

func TestRouteEndpointPathsAreWalkable(t *testing.T) {
	_, ts, g, _ := testServer(t)
	wire, pairs := randomWirePairs(21, g.N(), 24)
	var got routeResponse
	if code := postJSONValue(t, ts.URL+"/route", routeRequest{Pairs: wire}, &got); code != http.StatusOK {
		t.Fatalf("route: code %d", code)
	}
	if len(got.Routes) != len(wire) {
		t.Fatalf("got %d routes, want %d", len(got.Routes), len(wire))
	}
	for i, wr := range got.Routes {
		path := make([]graph.Node, len(wr.Path))
		for j, v := range wr.Path {
			path[j] = graph.Node(v)
		}
		r := &routing.RouteResult{Path: path, Length: wr.Length, Tree: wr.Tree, TreeDist: wr.TreeDist}
		if err := routing.Validate(g, pairs[i].U, pairs[i].V, r); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
	}
}

// TestScenarioStructuredErrors pins the error schema of all three scenario
// endpoints: stable machine-readable codes with the documented statuses.
func TestScenarioStructuredErrors(t *testing.T) {
	_, ts, _, _ := testServer(t)
	manyPairs, _ := json.Marshal(routeRequest{Pairs: make([][2]int64, maxRoutePairs+1)})
	manyCables := buyAtBulkRequest{Demands: []wireDemand{{S: 0, T: 1, Amount: 1}},
		Cables: make([]wireCable, maxScenarioCables+1)}
	manyCablesBody, _ := json.Marshal(manyCables)
	cases := []struct {
		name, path, body, code string
		status                 int
	}{
		{"kmedian not json", "/kmedian", "{", errBadJSON, http.StatusBadRequest},
		{"kmedian k=0", "/kmedian", `{"k":0}`, errBadScenario, http.StatusBadRequest},
		{"kmedian k>n", "/kmedian", `{"k":99999}`, errBadScenario, http.StatusBadRequest},
		{"buyatbulk demand range", "/buyatbulk",
			`{"demands":[{"s":0,"t":99999,"amount":1}],"cables":[{"capacity":1,"cost":1}]}`,
			errPairOutOfRange, http.StatusBadRequest},
		{"buyatbulk no cables", "/buyatbulk",
			`{"demands":[{"s":0,"t":1,"amount":1}],"cables":[]}`,
			errBadScenario, http.StatusBadRequest},
		{"buyatbulk cable cap", "/buyatbulk", string(manyCablesBody),
			errBatchTooLarge, http.StatusRequestEntityTooLarge},
		// A tree count near MaxInt clamps to the ensemble (it used to wrap
		// FirstTree+Trees and panic the handler); a negative one is rejected
		// instead of meaning "all trees".
		{"kmedian trees MaxInt", "/kmedian",
			`{"k":2,"seed":1,"firstTree":1,"trees":9223372036854775807}`, "", http.StatusOK},
		{"kmedian trees negative", "/kmedian",
			`{"k":2,"seed":1,"firstTree":1,"trees":-1}`, errBadScenario, http.StatusBadRequest},
		{"buyatbulk trees MaxInt", "/buyatbulk",
			`{"demands":[{"s":0,"t":1,"amount":1}],"cables":[{"capacity":1,"cost":1}],"firstTree":1,"trees":9223372036854775807}`,
			"", http.StatusOK},
		{"buyatbulk trees negative", "/buyatbulk",
			`{"demands":[{"s":0,"t":1,"amount":1}],"cables":[{"capacity":1,"cost":1}],"firstTree":1,"trees":-1}`,
			errBadScenario, http.StatusBadRequest},
		{"route empty", "/route", `{"pairs":[]}`, errEmptyPairs, http.StatusBadRequest},
		{"route range", "/route", `{"pairs":[[0,99999]]}`, errPairOutOfRange, http.StatusBadRequest},
		{"route cap", "/route", string(manyPairs), errBatchTooLarge, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		status, e := postForError(t, ts.URL+c.path, c.body)
		if status != c.status || e.Code != c.code {
			t.Fatalf("%s: status %d code %q, want %d %q", c.name, status, e.Code, c.status, c.code)
		}
	}
}

// TestScenarioBodyTooLarge: the scenario endpoints share the transport body
// cap with /batch and /update.
func TestScenarioBodyTooLarge(t *testing.T) {
	_, ts, _, _ := testServer(t)
	huge := bytes.Repeat([]byte{' '}, maxBodyBytes+2)
	copy(huge, `{"pairs":[[0,1]`)
	for _, path := range []string{"/kmedian", "/buyatbulk", "/route"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Error.Code != errBodyTooLarge {
			t.Fatalf("%s oversized body: code %d, error %+v", path, resp.StatusCode, er.Error)
		}
	}
}

// TestScenarioUnavailableOnSnapshotServer: a server holding only the trees
// (as -load builds) must answer 409 scenario_unavailable, not crash, and
// advertise scenarios:false in /stats.
func TestScenarioUnavailableOnSnapshotServer(t *testing.T) {
	rng := par.NewRNG(5)
	g := graph.RandomConnected(48, 140, 8, rng)
	ens, meta, err := buildEnsemble(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(nil, ens, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	for path, body := range map[string]string{
		"/kmedian":   `{"k":2,"seed":1}`,
		"/buyatbulk": `{"demands":[{"s":0,"t":1,"amount":1}],"cables":[{"capacity":1,"cost":1}]}`,
		"/route":     `{"pairs":[[0,1]]}`,
	} {
		status, e := postForError(t, ts.URL+path, body)
		if status != http.StatusConflict || e.Code != errScenarioUnavailable {
			t.Fatalf("%s on snapshot server: status %d code %q, want 409 %q",
				path, status, e.Code, errScenarioUnavailable)
		}
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["scenarios"] != false {
		t.Fatalf("stats scenarios = %v, want false", stats["scenarios"])
	}
}

// TestRouterKMedianFanout: the router shards the per-tree loop across the
// fleet and keeps the cheapest answer. Workers and a single process rank
// plans by the same exact cost in the same tree order, so the fleet's
// answer is the single-process answer.
func TestRouterKMedianFanout(t *testing.T) {
	rt, _, ref := testFleet(t, 2, 3*time.Second, time.Hour)
	rts := httptest.NewServer(rt.mux())
	defer rts.Close()
	refTS := httptest.NewServer(ref.mux())
	defer refTS.Close()

	req := kmedianRequest{K: 4, Seed: 13}
	var fleet, single kmedianResponse
	if code := postJSONValue(t, rts.URL+"/kmedian", req, &fleet); code != http.StatusOK {
		t.Fatalf("router kmedian: code %d", code)
	}
	if code := postJSONValue(t, refTS.URL+"/kmedian", req, &single); code != http.StatusOK {
		t.Fatalf("reference kmedian: code %d", code)
	}
	if len(fleet.Centers) == 0 || fleet.Cost <= 0 {
		t.Fatalf("degenerate fleet answer: %+v", fleet)
	}
	if !reflect.DeepEqual(fleet, single) {
		t.Fatalf("fleet answer %+v, single process %+v", fleet, single)
	}
	// Tree slicing is the router's own concern; a client pre-slicing would
	// silently compose with it.
	status, e := postForError(t, rts.URL+"/kmedian", `{"k":2,"trees":1}`)
	if status != http.StatusBadRequest || e.Code != errBadScenario {
		t.Fatalf("router kmedian with trees set: status %d code %q", status, e.Code)
	}
}

// TestRouterProxiesScenarios: /buyatbulk and /route pass through the router
// whole (they are not tree-separable) and come back as valid worker answers.
func TestRouterProxiesScenarios(t *testing.T) {
	rt, _, ref := testFleet(t, 2, 3*time.Second, time.Hour)
	rts := httptest.NewServer(rt.mux())
	defer rts.Close()
	refTS := httptest.NewServer(ref.mux())
	defer refTS.Close()

	bab := buyAtBulkRequest{
		Demands: []wireDemand{{S: 2, T: 44, Amount: 3}, {S: 9, T: 30, Amount: 1}},
		Cables:  testCables,
	}
	var viaRouter, direct buyAtBulkResponse
	if code := postJSONValue(t, rts.URL+"/buyatbulk", bab, &viaRouter); code != http.StatusOK {
		t.Fatalf("router buyatbulk: code %d", code)
	}
	if code := postJSONValue(t, refTS.URL+"/buyatbulk", bab, &direct); code != http.StatusOK {
		t.Fatalf("direct buyatbulk: code %d", code)
	}
	if viaRouter.Cost != direct.Cost {
		t.Fatalf("router cost %v, direct cost %v — proxy must not change the answer", viaRouter.Cost, direct.Cost)
	}

	var routes routeResponse
	if code := postJSONValue(t, rts.URL+"/route", routeRequest{Pairs: [][2]int64{{1, 40}, {7, 7}}}, &routes); code != http.StatusOK {
		t.Fatalf("router route: code %d", code)
	}
	if len(routes.Routes) != 2 || len(routes.Routes[0].Path) == 0 {
		t.Fatalf("router route answer malformed: %+v", routes)
	}
	// Structured worker rejections are relayed verbatim, not converted to 502.
	status, e := postForError(t, rts.URL+"/route", `{"pairs":[]}`)
	if status != http.StatusBadRequest || e.Code != errEmptyPairs {
		t.Fatalf("router relayed route rejection: status %d code %q", status, e.Code)
	}
}

// TestRouterScenarioFailover: killing a worker mid-fleet must not take the
// scenario endpoints down — /kmedian re-asks the dead primary's shard on the
// survivor, and the /route proxy fails over to the next replica.
func TestRouterScenarioFailover(t *testing.T) {
	rt, tss, _ := testFleet(t, 2, 2*time.Second, time.Hour)
	rts := httptest.NewServer(rt.mux())
	defer rts.Close()
	tss[0].Close()

	var kr kmedianResponse
	if code := postJSONValue(t, rts.URL+"/kmedian", kmedianRequest{K: 3, Seed: 5}, &kr); code != http.StatusOK {
		t.Fatalf("kmedian with a dead worker: code %d", code)
	}
	if len(kr.Centers) == 0 {
		t.Fatalf("degenerate answer after failover: %+v", kr)
	}
	var routes routeResponse
	for i := 0; i < 2; i++ { // round-robin start: hit both the dead and live primary
		if code := postJSONValue(t, rts.URL+"/route", routeRequest{Pairs: [][2]int64{{0, 30}}}, &routes); code != http.StatusOK {
			t.Fatalf("route with a dead worker (attempt %d): code %d", i, code)
		}
	}
	if rt.failovers.Load() == 0 {
		t.Fatal("no failover was recorded despite a dead worker")
	}
}

// TestRouterScenarioUpstreamFailures pins the router-side rejection and
// failure branches of the scenario endpoints: malformed bodies and bad k are
// rejected by the router itself, a fleet with no live worker yields 502
// upstream_unavailable, and a fleet of snapshot-only workers (no graph) has
// its structured 409 relayed verbatim rather than converted to a 502.
func TestRouterScenarioUpstreamFailures(t *testing.T) {
	rt, tss, _ := testFleet(t, 2, 500*time.Millisecond, time.Hour)
	rts := httptest.NewServer(rt.mux())
	defer rts.Close()

	if status, e := postForError(t, rts.URL+"/kmedian", "{"); status != http.StatusBadRequest || e.Code != errBadJSON {
		t.Fatalf("router kmedian bad json: status %d code %q", status, e.Code)
	}
	if status, e := postForError(t, rts.URL+"/kmedian", `{"k":0}`); status != http.StatusBadRequest || e.Code != errBadScenario {
		t.Fatalf("router kmedian k=0: status %d code %q", status, e.Code)
	}

	for _, ts := range tss {
		ts.Close()
	}
	for _, c := range []struct{ path, body string }{
		{"/kmedian", `{"k":2,"seed":1}`},
		{"/route", `{"pairs":[[0,1]]}`},
		{"/buyatbulk", `{"demands":[{"s":0,"t":1,"amount":1}],"cables":[{"capacity":1,"cost":1}]}`},
	} {
		status, e := postForError(t, rts.URL+c.path, c.body)
		if status != http.StatusBadGateway || e.Code != errUpstreamUnavailable {
			t.Fatalf("%s on dead fleet: status %d code %q, want 502 %q", c.path, status, e.Code, errUpstreamUnavailable)
		}
	}
}

// TestRouterForwardsScenarioUnavailable: snapshot-only workers reject the
// scenarios with 409; the router must relay that answer for the fan-out
// endpoint too (every shard fails identically).
func TestRouterForwardsScenarioUnavailable(t *testing.T) {
	rng := par.NewRNG(11)
	g := graph.RandomConnected(48, 140, 8, rng)
	ens, meta, err := buildEnsemble(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		ws, err := newServer(nil, ens, meta, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(ws.mux())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	rt, err := newRouter(urls, 8, 2*time.Second, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.mux())
	defer rts.Close()
	for _, c := range []struct{ path, body string }{
		{"/kmedian", `{"k":2,"seed":1}`},
		{"/route", `{"pairs":[[0,1]]}`},
	} {
		status, e := postForError(t, rts.URL+c.path, c.body)
		if status != http.StatusConflict || e.Code != errScenarioUnavailable {
			t.Fatalf("%s via snapshot fleet: status %d code %q, want 409 %q", c.path, status, e.Code, errScenarioUnavailable)
		}
	}
}

// TestRouteTablesInvalidatedByUpdate: /update bumps the serving version, so
// the next /route must rebuild the next-hop tables against the edited graph
// and still return walkable paths.
func TestRouteTablesInvalidatedByUpdate(t *testing.T) {
	s, ts, dyn := testDynamicServer(t)
	pair := [][2]int64{{0, 25}}
	var before routeResponse
	if code := postJSONValue(t, ts.URL+"/route", routeRequest{Pairs: pair}, &before); code != http.StatusOK {
		t.Fatalf("route before update: code %d", code)
	}
	builtAt := s.routeTablesAt

	e := dyn.Graph().Edges()[3]
	var ur updateResponse
	if code := postJSONValue(t, ts.URL+"/update", updateRequest{Edits: []updateEdit{
		{Op: "reweight", U: int64(e.U), V: int64(e.V), Weight: e.Weight * 4},
	}}, &ur); code != http.StatusOK {
		t.Fatalf("update: code %d", code)
	}

	var after routeResponse
	if code := postJSONValue(t, ts.URL+"/route", routeRequest{Pairs: pair}, &after); code != http.StatusOK {
		t.Fatalf("route after update: code %d", code)
	}
	if s.routeTablesAt == builtAt {
		t.Fatal("route tables were not rebuilt after /update")
	}
	path := make([]graph.Node, len(after.Routes[0].Path))
	for j, v := range after.Routes[0].Path {
		path[j] = graph.Node(v)
	}
	r := &routing.RouteResult{Path: path, Length: after.Routes[0].Length,
		Tree: after.Routes[0].Tree, TreeDist: after.Routes[0].TreeDist}
	if err := routing.Validate(dyn.Graph(), graph.Node(pair[0][0]), graph.Node(pair[0][1]), r); err != nil {
		t.Fatalf("route after update not walkable on the edited graph: %v", err)
	}
}

// TestClientScenarioModes drives the -client workload builder end to end
// against a live server for every mode.
func TestClientScenarioModes(t *testing.T) {
	_, ts, _, _ := testServer(t)
	for _, mode := range []string{"kmedian", "buyatbulk", "route"} {
		if err := runClient(ts.URL, mode, 3, 8, 2, 9, ""); err != nil {
			t.Fatalf("client mode %s: %v", mode, err)
		}
	}
	if err := runClient(ts.URL, "nonsense", 1, 1, 1, 1, ""); err == nil {
		t.Fatal("unknown -mode must fail")
	}
}

// cachedRouteTables reads the per-version routing-table cache under its lock.
func cachedRouteTables(s *server) (*routing.Tables, int64) {
	s.scenarioMu.Lock()
	defer s.scenarioMu.Unlock()
	return s.routeTables, s.routeTablesAt
}

// TestBuyAtBulkSharesRouteTables: /buyatbulk expands its loaded tree edges
// through the per-version routing tables /route caches. A /buyatbulk sent
// before any /route builds them and the next /route reuses them; /update
// leaves the rebuild to the next scenario request; and every answer equals
// buyatbulk.Solve on the serving ensemble of its version, bit for bit.
func TestBuyAtBulkSharesRouteTables(t *testing.T) {
	s, ts, dyn := testDynamicServer(t)
	req := buyAtBulkRequest{
		Demands: []wireDemand{{S: 0, T: 31, Amount: 2}, {S: 5, T: 17, Amount: 1.5}, {S: 38, T: 3, Amount: 6}, {S: 12, T: 25, Amount: 9}},
		Cables:  testCables,
	}
	demands := make([]buyatbulk.Demand, len(req.Demands))
	for i, d := range req.Demands {
		demands[i] = buyatbulk.Demand{S: graph.Node(d.S), T: graph.Node(d.T), Amount: d.Amount}
	}
	cables := make([]buyatbulk.CableType, len(req.Cables))
	for i, c := range req.Cables {
		cables[i] = buyatbulk.CableType{Capacity: c.Capacity, Cost: c.Cost}
	}
	check := func(when string) {
		t.Helper()
		var got buyAtBulkResponse
		if code := postJSONValue(t, ts.URL+"/buyatbulk", req, &got); code != http.StatusOK {
			t.Fatalf("buyatbulk %s: code %d", when, code)
		}
		st := s.state.Load()
		want, err := buyatbulk.Solve(st.g, demands, cables, buyatbulk.Options{Ensemble: st.ens})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || len(got.Purchases) != len(want.Purchases) {
			t.Fatalf("%s: endpoint cost %v (%d purchases), buyatbulk.Solve %v (%d purchases)",
				when, got.Cost, len(got.Purchases), want.Cost, len(want.Purchases))
		}
		for i, p := range want.Purchases {
			w := wirePurchase{U: int64(p.U), V: int64(p.V), Cable: p.Cable, Count: p.Count}
			if got.Purchases[i] != w {
				t.Fatalf("%s: purchase %d = %+v, want %+v", when, i, got.Purchases[i], w)
			}
		}
	}

	if rt, _ := cachedRouteTables(s); rt != nil {
		t.Fatal("routing tables built before the first scenario request")
	}
	check("cold")
	built, at := cachedRouteTables(s)
	if built == nil || at != s.state.Load().version {
		t.Fatal("/buyatbulk did not build the per-version routing tables")
	}
	var routed routeResponse
	if code := postJSONValue(t, ts.URL+"/route", routeRequest{Pairs: [][2]int64{{0, 25}}}, &routed); code != http.StatusOK {
		t.Fatalf("route: code %d", code)
	}
	if rt, _ := cachedRouteTables(s); rt != built {
		t.Fatal("/route rebuilt the tables /buyatbulk had built for the same version")
	}

	e := dyn.Graph().Edges()[3]
	var ur updateResponse
	if code := postJSONValue(t, ts.URL+"/update", updateRequest{Edits: []updateEdit{
		{Op: "reweight", U: int64(e.U), V: int64(e.V), Weight: e.Weight * 4},
	}}, &ur); code != http.StatusOK {
		t.Fatalf("update: code %d", code)
	}
	if rt, _ := cachedRouteTables(s); rt != built {
		t.Fatal("/update rebuilt the routing tables itself")
	}
	check("after update")
	if rt, at := cachedRouteTables(s); rt == built || at != s.state.Load().version {
		t.Fatal("/buyatbulk after /update did not rebuild the tables for the new version")
	}
}

// TestBuyAtBulkRejectsUnpriceableCable: a capacity so small that the cable
// count overflows an int used to yield a solution failing its own Validate;
// it is a structured 400 now.
func TestBuyAtBulkRejectsUnpriceableCable(t *testing.T) {
	_, ts, _, _ := testServer(t)
	status, e := postForError(t, ts.URL+"/buyatbulk",
		`{"demands":[{"s":0,"t":31,"amount":1}],"cables":[{"capacity":1e-300,"cost":1}]}`)
	if status != http.StatusBadRequest || e.Code != errBadScenario {
		t.Fatalf("status %d code %q, want %d %q", status, e.Code, http.StatusBadRequest, errBadScenario)
	}
}
