package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// TestHandlerTurnsFailuresIntoEnvelopes: a panicking step and a response
// that cannot be encoded both become a structured 500 internal — never a
// dropped connection or a 200 with an empty body — and neither counts as
// served.
func TestHandlerTurnsFailuresIntoEnvelopes(t *testing.T) {
	s, _, _, _ := testServer(t)
	count := func(any) (int64, int64) { return 1, 1 }
	type serveFunc = func(*server, context.Context, *serverState, any) (any, *apiError)
	for name, serve := range map[string]serveFunc{
		"panic":       func(*server, context.Context, *serverState, any) (any, *apiError) { panic("boom") },
		"unencodable": func(*server, context.Context, *serverState, any) (any, *apiError) { return math.Inf(1), nil },
	} {
		h := endpoint{method: "GET", path: "/x", serve: serve, count: count}.handler(s, nil)
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/x", nil))
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: body %q is not an envelope: %v", name, rec.Body.String(), err)
		}
		if rec.Code != http.StatusInternalServerError || er.Error.Code != errInternal || er.Error.Message == "" {
			t.Fatalf("%s: status %d error %+v, want 500 %q", name, rec.Code, er.Error, errInternal)
		}
	}
	if q, b := s.queries.Load(), s.batches.Load(); q != 0 || b != 0 {
		t.Fatalf("failed requests counted: queries %d batches %d", q, b)
	}
}

// TestBuyAtBulkRejectsOverflowingCost: a finite catalogue whose priced
// total overflows to +Inf used to answer 200 with an empty body (the header
// went out before the encoder failed on the infinity). It is a 400
// bad_scenario now.
func TestBuyAtBulkRejectsOverflowingCost(t *testing.T) {
	_, ts, _, _ := testServer(t)
	status, e := postForError(t, ts.URL+"/buyatbulk",
		`{"demands":[{"s":0,"t":31,"amount":1}],"cables":[{"capacity":1,"cost":1e308}]}`)
	if status != http.StatusBadRequest || e.Code != errBadScenario {
		t.Fatalf("status %d code %q, want 400 %q", status, e.Code, errBadScenario)
	}
}

// dynamicFleet fronts two identical dynamic workers with a router.
func dynamicFleet(t *testing.T) (*router, []*server) {
	t.Helper()
	g := graph.RandomConnected(40, 120, 8, par.NewRNG(71))
	var (
		servers []*server
		urls    []string
	)
	for i := 0; i < 2; i++ {
		dyn, err := frt.NewDynamicEnsemble(g, 4, par.NewRNG(72), nil)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := newServer(g, dyn.Ensemble(), frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}, dyn)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(ws.mux())
		t.Cleanup(ts.Close)
		servers = append(servers, ws)
		urls = append(urls, ts.URL)
	}
	rt, err := newRouter(urls, 8, 2*time.Second, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, servers
}

// TestRouterRejectsClientErrorsItself: the router decodes every request with
// the workers' own step, so a malformed body gets the worker's 400 from the
// router — not a 502 after every worker refused it — and reaches no worker.
func TestRouterRejectsClientErrorsItself(t *testing.T) {
	rt, workers := dynamicFleet(t)
	rts := httptest.NewServer(rt.mux())
	t.Cleanup(rts.Close)
	cases := []struct{ path, body, code string }{
		{"/update", "{", errBadJSON},
		{"/update", `{"edits":[]}`, errBadEdit},
		{"/update", `{"edits":[{"op":"reweight","u":0,"v":4294967297,"weight":1}]}`, errBadEdit},
		{"/update", `{"edits":[{"op":"upsert","u":0,"v":1,"weight":1}]}`, errBadEdit},
		{"/buyatbulk", `{"demands":[{"s":0,"t":99999,"amount":1}],"cables":[{"capacity":1,"cost":1}]}`, errPairOutOfRange},
		{"/route", `{"pairs":[]}`, errEmptyPairs},
		{"/route", "{", errBadJSON},
	}
	for _, c := range cases {
		status, e := postForError(t, rts.URL+c.path, c.body)
		if status != http.StatusBadRequest || e.Code != c.code {
			t.Fatalf("router %s %s: status %d code %q, want 400 %q", c.path, c.body, status, e.Code, c.code)
		}
	}
	for i, ws := range workers {
		if u := ws.updates.Load(); u != 0 {
			t.Fatalf("worker %d applied %d updates", i, u)
		}
	}
	for _, w := range rt.workers {
		if served, failed := w.served.Load(), w.failures.Load(); served != 0 || failed != 0 {
			t.Fatalf("worker %s was asked: served %d, failures %d", w.url, served, failed)
		}
	}
}

// TestRouterCountsLikeAWorker: the same traffic — malformed requests, a
// /dist, a /batch, and every scenario — sent to a router and to a
// standalone worker leaves their queries and batches counters equal.
func TestRouterCountsLikeAWorker(t *testing.T) {
	rt, _, ref := testFleet(t, 2, 3*time.Second, time.Hour)
	rts := httptest.NewServer(rt.mux())
	t.Cleanup(rts.Close)
	refTS := httptest.NewServer(ref.mux())
	t.Cleanup(refTS.Close)
	type counters struct {
		Queries int64 `json:"queries"`
		Batches int64 `json:"batches"`
	}
	var got [2]counters
	for i, base := range []string{rts.URL, refTS.URL} {
		for _, q := range []struct{ path, body string }{
			{"/batch", "{"},
			{"/batch", `{"pairs":[]}`},
			{"/route", `{"pairs":[[0,99999]]}`},
			{"/kmedian", `{"k":0}`},
			{"/buyatbulk", "{"},
			{"/update", "{"},
			{"/route", `{"pairs":[[0,40],[3,3],[17,5]]}`},
			{"/batch", `{"pairs":[[0,1],[2,3]],"stat":"median"}`},
			{"/kmedian", `{"k":3,"seed":2}`},
			{"/buyatbulk", `{"demands":[{"s":0,"t":31,"amount":2}],"cables":[{"capacity":1,"cost":1}]}`},
		} {
			resp, err := http.Post(base+q.path, "application/json", strings.NewReader(q.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		if code := getJSON(t, base+"/dist?u=4&v=9", nil); code != http.StatusOK {
			t.Fatalf("%s/dist: code %d", base, code)
		}
		if code := getJSON(t, base+"/stats", &got[i]); code != http.StatusOK {
			t.Fatalf("%s/stats: code %d", base, code)
		}
	}
	if got[0] != got[1] || got[1] != (counters{Queries: 8, Batches: 2}) {
		t.Fatalf("router counts %+v, worker counts %+v, want both {8 2}", got[0], got[1])
	}
}

// fuzzWorker builds the small -dynamic worker each FuzzEndpoints input runs
// against; a fresh one per input keeps every input's answer reproducible,
// /update included.
func fuzzWorker(t testing.TB) (*server, http.Handler) {
	g := graph.RandomConnected(24, 60, 8, par.NewRNG(71))
	dyn, err := frt.NewDynamicEnsemble(g, 2, par.NewRNG(72), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(g, dyn.Ensemble(), frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}, dyn)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.mux()
}

// wireIDs decodes body as the endpoint's decode step does and returns every
// node id in it (ok false when it does not decode).
func wireIDs(path string, body []byte) (ids []int64, ok bool) {
	dec := func(v any) bool { return json.NewDecoder(bytes.NewReader(body)).Decode(v) == nil }
	switch path {
	case "/dist":
		q, _ := url.ParseQuery(string(body))
		for _, key := range []string{"u", "v"} {
			id, err := strconv.ParseInt(q.Get(key), 10, 64)
			if err != nil {
				return nil, false
			}
			ids = append(ids, id)
		}
	case "/batch", "/route":
		var r routeRequest
		if !dec(&r) {
			return nil, false
		}
		for _, p := range r.Pairs {
			ids = append(ids, p[0], p[1])
		}
	case "/buyatbulk":
		var r buyAtBulkRequest
		if !dec(&r) {
			return nil, false
		}
		for _, d := range r.Demands {
			ids = append(ids, d.S, d.T)
		}
	case "/update":
		var r updateRequest
		if !dec(&r) {
			return nil, false
		}
		for _, e := range r.Edits {
			ids = append(ids, e.U, e.V)
		}
	}
	return ids, true
}

// FuzzEndpoints posts arbitrary bodies (GET /dist: arbitrary query strings)
// to every table entry of a small -dynamic worker. Whatever the input:
// nothing panics and nothing is a 5xx; every 4xx carries a well-formed
// error envelope; every 200 body is valid JSON, and a 200 never answers a
// request naming a node id outside [0, n) — the wire ids are range-checked
// as int64, before any narrowing could wrap one onto a real node.
func FuzzEndpoints(f *testing.F) {
	seeds := map[string][]string{
		"/healthz": {""},
		"/stats":   {""},
		"/dist":    {"u=0&v=5", "u=3&v=3&stat=median", "u=-1&v=2", "u=4294967296&v=1", "u=0&v=1&stat=pertree"},
		"/batch": {`{"pairs":[[0,1],[2,3]]}`, `{"pairs":[[0,1]],"stat":"pertree","trees":[1,2]}`,
			`{"pairs":[[4294967296,1]]}`, `{"pairs":[[0,1]],"stat":"pertree","trees":[1,0]}`},
		"/update": {`{"edits":[{"op":"reweight","u":0,"v":1,"weight":2}]}`,
			`{"edits":[{"op":"delete","u":0,"v":1}]}`, `{"edits":[{"op":"insert","u":0,"v":23,"weight":1e308}]}`},
		"/kmedian": {`{"k":3,"seed":1}`, `{"k":2,"firstTree":1,"trees":9223372036854775807}`, `{"k":1,"trees":-1}`},
		"/buyatbulk": {`{"demands":[{"s":0,"t":20,"amount":1}],"cables":[{"capacity":1,"cost":1}]}`,
			`{"demands":[{"s":0,"t":20,"amount":1}],"cables":[{"capacity":1,"cost":1e308}]}`,
			`{"demands":[{"s":-1,"t":2,"amount":1}],"cables":[{"capacity":1e-300,"cost":1}]}`},
		"/route": {`{"pairs":[[0,20],[5,5]]}`, `{"pairs":[[0,4294967296]]}`},
	}
	// A reweight of a real edge, as is and with an endpoint id wrapped by
	// 2^32: narrowed to graph.Node before the range check, the wrapped id
	// would name the same edge and be applied.
	s, _ := fuzzWorker(f)
	e := s.dyn.Graph().Edges()[0]
	for _, u := range []int64{int64(e.U), int64(e.U) + 1<<32} {
		seeds["/update"] = append(seeds["/update"],
			fmt.Sprintf(`{"edits":[{"op":"reweight","u":%d,"v":%d,"weight":%g}]}`, u, e.V, 2*e.Weight))
	}
	for i, e := range endpoints {
		for _, body := range seeds[e.path] {
			f.Add(uint8(i), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		e := endpoints[int(which)%len(endpoints)]
		s, mux := fuzzWorker(t)
		n := s.state.Load().n
		req := httptest.NewRequest(e.method, e.path, bytes.NewReader(body))
		if e.method == "GET" {
			req = httptest.NewRequest(e.method, e.path, nil)
			req.URL.RawQuery = string(body)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		label := fmt.Sprintf("%s %s %q", e.method, e.path, body)
		switch status := rec.Code; {
		case status >= 500:
			t.Fatalf("%s: status %d, body %s", label, status, rec.Body.Bytes())
		case status >= 400:
			var er struct {
				Error *apiError `json:"error"`
			}
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&er); err != nil || er.Error == nil || er.Error.Code == "" || er.Error.Message == "" {
				t.Fatalf("%s: status %d without a well-formed envelope (%v): %s", label, status, err, rec.Body.Bytes())
			}
		case status == http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: 200 with invalid JSON body %q", label, rec.Body.Bytes())
			}
			ids, ok := wireIDs(e.path, body)
			for _, id := range ids {
				if ok && !inRange(id, n) {
					t.Fatalf("%s: 200 for node id %d outside [0, %d)", label, id, n)
				}
			}
		default:
			t.Fatalf("%s: unexpected status %d", label, status)
		}
	})
}
