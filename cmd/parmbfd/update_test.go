package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// testDynamicServer builds a small dynamic server (direct pipeline).
func testDynamicServer(t *testing.T) (*server, *httptest.Server, *frt.DynamicEnsemble) {
	t.Helper()
	g := graph.RandomConnected(40, 120, 8, par.NewRNG(71))
	dyn, err := frt.NewDynamicEnsemble(g, 3, par.NewRNG(72), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(g, dyn.Ensemble(), frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}, dyn)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts, dyn
}

func postJSONValue(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestUpdateEndpoint(t *testing.T) {
	s, ts, dyn := testDynamicServer(t)
	edges := dyn.Graph().Edges()
	e := edges[5]

	var before struct {
		Dist float64 `json:"dist"`
	}
	getJSON(t, ts.URL+"/dist?u="+itoa(int(e.U))+"&v="+itoa(int(e.V)), &before)

	var ur updateResponse
	code := postJSONValue(t, ts.URL+"/update", updateRequest{Edits: []updateEdit{
		{Op: "reweight", U: int64(e.U), V: int64(e.V), Weight: e.Weight / 8},
	}}, &ur)
	if code != http.StatusOK || ur.Version != 1 {
		t.Fatalf("update: code %d, resp %+v", code, ur)
	}

	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if int64(stats["version"].(float64)) != 1 || int64(stats["updates"].(float64)) != 1 {
		t.Fatalf("stats after update: %v", stats)
	}
	if stats["dynamic"] != true {
		t.Fatalf("stats: dynamic = %v", stats["dynamic"])
	}

	// The swapped index must answer exactly as a reference index over the
	// updated ensemble.
	refIdx, err := dyn.Ensemble().Index()
	if err != nil {
		t.Fatal(err)
	}
	var after struct {
		Dist float64 `json:"dist"`
	}
	getJSON(t, ts.URL+"/dist?u="+itoa(int(e.U))+"&v="+itoa(int(e.V)), &after)
	if want := refIdx.Min(e.U, e.V); after.Dist != want {
		t.Fatalf("post-update dist %v, want %v", after.Dist, want)
	}
	_ = s
}

// TestUpdateReportsPatch: /update returns the tree and index patch's
// counts, patchedRows, rangeRebuilds and indexRebuilds, as frt.UpdateStats
// reports them. A light reweight patches rows and the index; an insert far
// lighter than every edge moves each dirty tree's level range, so those
// trees re-read all n lists, and deepens them, so the index is repacked.
func TestUpdateReportsPatch(t *testing.T) {
	_, ts, dyn := testDynamicServer(t)
	twin, err := frt.NewDynamicEnsemble(dyn.Graph(), 3, par.NewRNG(72), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := dyn.Graph().N()
	e := dyn.Graph().Edges()[5]
	var u, v graph.Node = 0, 1
	for _, ok := dyn.Graph().HasEdge(u, v); ok; _, ok = dyn.Graph().HasEdge(u, v) {
		v++
	}
	for step, edit := range []updateEdit{
		{Op: "reweight", U: int64(e.U), V: int64(e.V), Weight: e.Weight / 8},
		{Op: "insert", U: int64(u), V: int64(v), Weight: 1e-3},
	} {
		var raw map[string]any
		if code := postJSONValue(t, ts.URL+"/update", updateRequest{Edits: []updateEdit{edit}}, &raw); code != http.StatusOK {
			t.Fatalf("step %d: code %d, resp %v", step, code, raw)
		}
		want, err := twin.ApplyEdits([]graph.Edit{{Op: editOps[edit.Op], U: graph.Node(edit.U), V: graph.Node(edit.V), Weight: edit.Weight}})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, k := range []string{"affectedTrees", "patchedRows", "rangeRebuilds", "indexRebuilds"} {
			f, ok := raw[k].(float64)
			if !ok {
				t.Fatalf("step %d: response %v lacks %q", step, raw, k)
			}
			got[k] = int(f)
		}
		if got["affectedTrees"] != want.AffectedTrees || got["patchedRows"] != want.PatchedRows ||
			got["rangeRebuilds"] != want.RangeRebuilds || got["indexRebuilds"] != want.IndexRebuilds {
			t.Fatalf("step %d: response %v, want stats %+v", step, got, *want)
		}
		switch step {
		case 0:
			if want.AffectedTrees == 0 || want.RangeRebuilds != 0 || want.PatchedRows >= want.AffectedTrees*n || want.IndexRebuilds != 0 {
				t.Fatalf("reweight: stats %+v, want a row and index patch", *want)
			}
		case 1:
			if want.AffectedTrees != 3 || want.RangeRebuilds != 3 || want.PatchedRows != 3*n || want.IndexRebuilds != 1 {
				t.Fatalf("light insert: stats %+v, want 3 range rebuilds of %d rows and an index rebuild", *want, n)
			}
		}
	}
}

func TestUpdateRejectsStaticServer(t *testing.T) {
	_, ts, _, _ := testServer(t)
	var er errorResponse
	code := postJSONValue(t, ts.URL+"/update", updateRequest{Edits: []updateEdit{
		{Op: "delete", U: 0, V: 1},
	}}, &er)
	if code != http.StatusConflict || er.Error.Code != errUpdateUnsupported {
		t.Fatalf("static /update: code %d, error %+v", code, er.Error)
	}
}

func TestUpdateBadBatches(t *testing.T) {
	_, ts, dyn := testDynamicServer(t)
	treesBefore := dyn.Trees()
	// An existing edge's endpoint plus 2^32 narrows onto that endpoint as an
	// int32 node ID, so only a range check on the wire value rejects it.
	e := dyn.Graph().Edges()[0]
	cases := []struct {
		name     string
		body     any
		wantCode int
		wantErr  string
	}{
		{"bad json", "{", http.StatusBadRequest, errBadJSON},
		{"empty", updateRequest{}, http.StatusBadRequest, errBadEdit},
		{"unknown op", updateRequest{Edits: []updateEdit{{Op: "upsert", U: 0, V: 1, Weight: 1}}},
			http.StatusBadRequest, errBadEdit},
		{"missing edge", updateRequest{Edits: []updateEdit{{Op: "delete", U: 0, V: 39}}},
			http.StatusBadRequest, errBadEdit},
		{"out of range", updateRequest{Edits: []updateEdit{{Op: "insert", U: 0, V: 4096, Weight: 1}}},
			http.StatusBadRequest, errBadEdit},
		{"wrapped id", updateRequest{Edits: []updateEdit{{Op: "reweight", U: int64(e.U) + 1<<32, V: int64(e.V), Weight: e.Weight * 2}}},
			http.StatusBadRequest, errBadEdit},
		{"too many edits", updateRequest{Edits: make([]updateEdit, maxUpdateEdits+1)},
			http.StatusRequestEntityTooLarge, errBatchTooLarge},
	}
	for _, tc := range cases {
		var er errorResponse
		var code int
		if s, ok := tc.body.(string); ok {
			resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(s))
			if err != nil {
				t.Fatal(err)
			}
			code = resp.StatusCode
			err = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		} else {
			code = postJSONValue(t, ts.URL+"/update", tc.body, &er)
		}
		if code != tc.wantCode || er.Error.Code != tc.wantErr {
			t.Errorf("%s: code %d error %q, want %d %q", tc.name, code, er.Error.Code, tc.wantCode, tc.wantErr)
		}
	}
	// Every rejected batch must have left the serving state untouched.
	if v := statsVersion(t, ts); v != 0 {
		t.Fatalf("failed updates bumped version to %d", v)
	}
	after := dyn.Trees()
	for i := range treesBefore {
		if treesBefore[i] != after[i] {
			t.Fatal("failed updates changed the ensemble")
		}
	}
}

func statsVersion(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	return int64(stats["version"].(float64))
}

// TestBatchBodyTooLarge pins the MaxBytesReader hardening: a body over the
// transport cap must yield a structured 413, not a hang or a bare 400.
func TestBatchBodyTooLarge(t *testing.T) {
	_, ts, _, _ := testServer(t)
	huge := bytes.Repeat([]byte{' '}, maxBodyBytes+2)
	copy(huge, `{"pairs":[[0,1]`)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Error.Code != errBodyTooLarge {
		t.Fatalf("oversized body: code %d, error %+v", resp.StatusCode, er.Error)
	}
}

// TestRouterForwardsUpdate: a router must fan an edit batch to every worker
// and report each replica's new version; queries after the update must be
// answered from the updated ensembles.
func TestRouterForwardsUpdate(t *testing.T) {
	// Two dynamic workers built from the same seed hold identical ensembles.
	g := graph.RandomConnected(40, 120, 8, par.NewRNG(71))
	var servers []*server
	var urls []string
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
	rts := httptest.NewServer(rt.mux())
	t.Cleanup(rts.Close)

	e := g.Edges()[3]
	var out struct {
		Workers []struct {
			URL     string `json:"url"`
			Version int64  `json:"version"`
		} `json:"workers"`
	}
	code := postJSONValue(t, rts.URL+"/update", updateRequest{Edits: []updateEdit{
		{Op: "reweight", U: int64(e.U), V: int64(e.V), Weight: e.Weight / 4},
	}}, &out)
	if code != http.StatusOK || len(out.Workers) != 2 {
		t.Fatalf("router update: code %d, body %+v", code, out)
	}
	for _, wu := range out.Workers {
		if wu.Version != 1 {
			t.Fatalf("worker %s at version %d, want 1", wu.URL, wu.Version)
		}
	}
	// Router answers must come from the updated ensembles and match a
	// single-server reference bitwise.
	refIdx, err := servers[0].dyn.Ensemble().Index()
	if err != nil {
		t.Fatal(err)
	}
	var dist struct {
		Dist float64 `json:"dist"`
	}
	if code := getJSON(t, rts.URL+"/dist?u="+itoa(int(e.U))+"&v="+itoa(int(e.V)), &dist); code != http.StatusOK {
		t.Fatalf("router dist: code %d", code)
	}
	if want := refIdx.Min(e.U, e.V); dist.Dist != want {
		t.Fatalf("router post-update dist %v, want %v", dist.Dist, want)
	}
}

// TestGracefulShutdown: SIGINT must let an in-flight request finish, refuse
// new connections, and return nil from the serve loop.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, _ *http.Request) {
		once.Do(func() { close(entered) })
		<-release
		w.WriteHeader(http.StatusOK)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	errCh := make(chan error, 1)
	go func() {
		errCh <- serveGracefully(newHTTPServer(mux), ln, 10*time.Second, func() { stopped = true })
	}()

	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = &net.AddrError{Err: resp.Status, Addr: "slow"}
			}
		}
		slowDone <- err
	}()
	<-entered

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	// Give Shutdown a moment to close the listener, then let the in-flight
	// request complete; it must have been drained, not cut off.
	time.Sleep(100 * time.Millisecond)
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request was not drained: %v", err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("serve loop returned %v, want nil on clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after SIGINT")
	}
	if !stopped {
		t.Fatal("onStopped hook did not run")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/slow"); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}
}
