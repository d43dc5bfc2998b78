package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

func testServer(t *testing.T) (*server, *httptest.Server, *graph.Graph, *frt.Ensemble) {
	t.Helper()
	rng := par.NewRNG(5)
	g := graph.RandomConnected(48, 140, 8, rng)
	ens, meta, err := buildEnsemble(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(g, ens, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts, g, ens
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthzAndStats(t *testing.T) {
	s, ts, g, _ := testServer(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: code %d, body %v", code, health)
	}
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: code %d", code)
	}
	if int(stats["nodes"].(float64)) != g.N() || int(stats["trees"].(float64)) != s.state.Load().idx.NumTrees() {
		t.Fatalf("stats mismatch: %v", stats)
	}
	if int(stats["edges"].(float64)) != g.M() {
		t.Fatalf("stats edges = %v, want %d", stats["edges"], g.M())
	}
}

func TestDistEndpointMatchesEnsemble(t *testing.T) {
	_, ts, _, ens := testServer(t)
	for _, q := range []struct{ u, v int }{{0, 1}, {3, 40}, {7, 7}, {47, 0}} {
		var got struct {
			Dist float64 `json:"dist"`
		}
		url := ts.URL + "/dist?u=" + itoa(q.u) + "&v=" + itoa(q.v)
		if code := getJSON(t, url, &got); code != http.StatusOK {
			t.Fatalf("dist(%d,%d): code %d", q.u, q.v, code)
		}
		if want := ens.Min(graph.Node(q.u), graph.Node(q.v)); got.Dist != want {
			t.Fatalf("dist(%d,%d) = %v, ensemble Min %v", q.u, q.v, got.Dist, want)
		}
		var med struct {
			Dist float64 `json:"dist"`
		}
		if code := getJSON(t, url+"&stat=median", &med); code != http.StatusOK {
			t.Fatalf("median dist(%d,%d): code %d", q.u, q.v, code)
		}
		if want := ens.Median(graph.Node(q.u), graph.Node(q.v)); med.Dist != want {
			t.Fatalf("median(%d,%d) = %v, ensemble %v", q.u, q.v, med.Dist, want)
		}
	}
}

func TestDistEndpointRejectsBadInput(t *testing.T) {
	_, ts, _, _ := testServer(t)
	for _, q := range []string{"u=0", "u=x&v=1", "u=-1&v=2", "u=0&v=99999", "u=3.9&v=2", "u=4junk&v=2", "u=0&v=1&stat=mean"} {
		if code := getJSON(t, ts.URL+"/dist?"+q, nil); code != http.StatusBadRequest {
			t.Fatalf("query %q: code %d, want 400", q, code)
		}
	}
}

func postJSON(t *testing.T, url, body string) (int, batchResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, br
}

// postForError posts a body expected to fail and decodes the structured
// error envelope.
func postForError(t *testing.T, url, body string) (int, apiError) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error response is not the documented envelope: %v", err)
	}
	return resp.StatusCode, er.Error
}

func TestBatchEndpointMatchesMinBatch(t *testing.T) {
	s, ts, g, ens := testServer(t)
	rng := par.NewRNG(9)
	req := batchRequest{Pairs: make([][2]int64, 64)}
	for i := range req.Pairs {
		req.Pairs[i] = [2]int64{int64(rng.Intn(g.N())), int64(rng.Intn(g.N()))}
	}
	body, _ := json.Marshal(req)
	// Twice: the second run exercises the pooled response buffer.
	for round := 0; round < 2; round++ {
		code, br := postJSON(t, ts.URL+"/batch", string(body))
		if code != http.StatusOK {
			t.Fatalf("batch round %d: code %d", round, code)
		}
		if len(br.Dists) != len(req.Pairs) {
			t.Fatalf("batch round %d: %d dists, want %d", round, len(br.Dists), len(req.Pairs))
		}
		for i, p := range req.Pairs {
			if want := ens.Min(graph.Node(p[0]), graph.Node(p[1])); br.Dists[i] != want {
				t.Fatalf("batch round %d pair %d: %v, want %v", round, i, br.Dists[i], want)
			}
		}
	}
	if got := s.batches.Load(); got != 2 {
		t.Fatalf("batches counter = %d, want 2", got)
	}
	if got := s.queries.Load(); got != int64(2*len(req.Pairs)) {
		t.Fatalf("queries counter = %d, want %d", got, 2*len(req.Pairs))
	}
}

// TestBatchStructuredErrors pins the documented error schema: every
// rejection carries {"error":{"code":…,"message":…}} with a stable
// machine-readable code, including cap-exceeded (with max/got details) and
// malformed pairs (with the offending index).
func TestBatchStructuredErrors(t *testing.T) {
	_, ts, _, _ := testServer(t)
	cases := []struct {
		name, body, code string
		status           int
	}{
		{"not json", "{", errBadJSON, http.StatusBadRequest},
		{"empty pairs", `{"pairs":[]}`, errEmptyPairs, http.StatusBadRequest},
		{"out of range", `{"pairs":[[0,99999]]}`, errPairOutOfRange, http.StatusBadRequest},
		{"negative", `{"pairs":[[-1,0]]}`, errPairOutOfRange, http.StatusBadRequest},
		{"bad stat", `{"pairs":[[0,1]],"stat":"mean"}`, errBadStat, http.StatusBadRequest},
		{"bad tree range", `{"pairs":[[0,1]],"stat":"pertree","trees":[3,99]}`, errBadTreeRange, http.StatusBadRequest},
	}
	for _, c := range cases {
		status, e := postForError(t, ts.URL+"/batch", c.body)
		if status != c.status || e.Code != c.code {
			t.Fatalf("%s: status %d code %q, want %d %q", c.name, status, e.Code, c.status, c.code)
		}
		if e.Message == "" {
			t.Fatalf("%s: empty error message", c.name)
		}
	}
	// Malformed-pair details name the offending pair.
	_, e := postForError(t, ts.URL+"/batch", `{"pairs":[[0,1],[2,99999]]}`)
	if e.Details["index"].(float64) != 1 {
		t.Fatalf("pair_out_of_range details = %v, want index 1", e.Details)
	}
	// Over-cap batch: generated, not hand-written; details carry the cap.
	var buf bytes.Buffer
	buf.WriteString(`{"pairs":[`)
	for i := 0; i <= maxBatchPairs; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("[0,1]")
	}
	buf.WriteString(`]}`)
	status, e := postForError(t, ts.URL+"/batch", buf.String())
	if status != http.StatusRequestEntityTooLarge || e.Code != errBatchTooLarge {
		t.Fatalf("over-cap batch: status %d code %q, want 413 %q", status, e.Code, errBatchTooLarge)
	}
	if int(e.Details["max"].(float64)) != maxBatchPairs || int(e.Details["got"].(float64)) != maxBatchPairs+1 {
		t.Fatalf("batch_too_large details = %v", e.Details)
	}
}

func TestBatchMedianStat(t *testing.T) {
	_, ts, _, ens := testServer(t)
	code, br := postJSON(t, ts.URL+"/batch", `{"pairs":[[0,1],[2,3]],"stat":"median"}`)
	if code != http.StatusOK {
		t.Fatalf("median batch: code %d", code)
	}
	for i, p := range [][2]graph.Node{{0, 1}, {2, 3}} {
		if want := ens.Median(p[0], p[1]); br.Dists[i] != want {
			t.Fatalf("median pair %d: %v, want %v", i, br.Dists[i], want)
		}
	}
}

// TestBatchPerTreeStat pins the worker half of the sharding protocol: a
// pertree request returns the pair-major per-tree block of the requested
// shard, matching OracleIndex.PerTreeBatch bitwise, and echoes the shard.
func TestBatchPerTreeStat(t *testing.T) {
	s, ts, _, _ := testServer(t)
	pairs := []frt.Pair{{U: 0, V: 1}, {U: 7, V: 7}, {U: 40, V: 3}}
	want, err := s.state.Load().idx.PerTreeBatch(pairs, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, br := postJSON(t, ts.URL+"/batch", `{"pairs":[[0,1],[7,7],[40,3]],"stat":"pertree","trees":[1,3]}`)
	if code != http.StatusOK {
		t.Fatalf("pertree batch: code %d", code)
	}
	if br.Trees == nil || *br.Trees != [2]int{1, 3} {
		t.Fatalf("pertree response trees = %v, want [1,3]", br.Trees)
	}
	if len(br.Dists) != len(want) {
		t.Fatalf("pertree dists: %d values, want %d", len(br.Dists), len(want))
	}
	for i := range want {
		if br.Dists[i] != want[i] {
			t.Fatalf("pertree dist %d = %v, want %v", i, br.Dists[i], want[i])
		}
	}
	// Default shard is the whole ensemble.
	code, br = postJSON(t, ts.URL+"/batch", `{"pairs":[[0,1]],"stat":"pertree"}`)
	if code != http.StatusOK || *br.Trees != [2]int{0, s.state.Load().idx.NumTrees()} {
		t.Fatalf("default pertree shard: code %d trees %v", code, br.Trees)
	}
}

// TestServerFromSnapshotMatchesBuilt round-trips the ensemble through the
// snapshot file codec and checks the reloaded server's HTTP answers are
// bitwise identical to the freshly built one's — the cmd-level differential
// that -save / -load preserve the serving contract end to end.
func TestServerFromSnapshotMatchesBuilt(t *testing.T) {
	_, ts, g, ens := testServer(t)
	path := filepath.Join(t.TempDir(), "oracle.snap")
	meta := frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}
	if err := frt.WriteSnapshotFile(path, ens, meta); err != nil {
		t.Fatal(err)
	}
	ens2, meta2, err := frt.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != meta {
		t.Fatalf("snapshot meta %+v, want %+v", meta2, meta)
	}
	s2, err := newServer(nil, ens2, meta2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.mux())
	defer ts2.Close()

	body := `{"pairs":[[0,1],[3,40],[7,7],[47,0]],"stat":"median"}`
	_, fresh := postJSON(t, ts.URL+"/batch", body)
	_, loaded := postJSON(t, ts2.URL+"/batch", body)
	for i := range fresh.Dists {
		if fresh.Dists[i] != loaded.Dists[i] {
			t.Fatalf("pair %d: loaded %v, fresh %v", i, loaded.Dists[i], fresh.Dists[i])
		}
	}
}

// TestClientAgainstServer spins the real handler stack up on a loopback
// listener and runs the load-generating client against it end to end,
// including the JSON summary line.
func TestClientAgainstServer(t *testing.T) {
	_, ts, _, _ := testServer(t)
	out := filepath.Join(t.TempDir(), "client.json")
	if err := runClient(ts.URL, "batch", 8, 16, 2, 3, out); err != nil {
		t.Fatal(err)
	}
	if err := runClient(ts.URL, "batch", 8, 16, 2, 3, out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("summary file has %d lines, want 2 (append semantics)", len(lines))
	}
	var sum clientSummary
	if err := json.Unmarshal([]byte(lines[1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Requests != 8 || sum.Batch != 16 || sum.Failed != 0 || sum.PairsPerSec <= 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
}

// TestClientReportsServerErrors covers the client's failure accounting: a
// server whose /stats looks healthy but whose /batch fails must surface
// the first error, not report success.
func TestClientReportsServerErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, statsResponse{Nodes: 64, Trees: 4})
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, http.StatusInternalServerError, "internal", "boom", nil)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if err := runClient(ts.URL, "batch", 4, 8, 2, 3, ""); err == nil {
		t.Fatal("client reported success against a failing /batch")
	}
	if err := runClient("http://127.0.0.1:1", "batch", 1, 1, 1, 1, ""); err == nil {
		t.Fatal("client reported success against a dead target")
	}
	if err := runClient(ts.URL, "batch", 0, 8, 2, 3, ""); err == nil {
		t.Fatal("-requests 0 accepted")
	}
	if err := runClient(ts.URL, "batch", 4, -1, 2, 3, ""); err == nil {
		t.Fatal("negative -batch accepted")
	}
}

func TestLoadGraphGenerators(t *testing.T) {
	rng := par.NewRNG(1)
	for _, gen := range []string{"random", "grid", "path", "cycle", "geometric", "lollipop", "powerlaw"} {
		g, err := graph.Load("", gen, 32, 0, rng)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", gen)
		}
	}
	if _, err := graph.Load("", "nope", 16, 0, rng); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if _, err := graph.Load("/nonexistent/file", "", 0, 0, rng); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSplitWorkerURLs(t *testing.T) {
	got := splitWorkerURLs(" http://a:1/, ,http://b:2 ,")
	want := []string{"http://a:1", "http://b:2"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("splitWorkerURLs = %v, want %v", got, want)
	}
	if urls := splitWorkerURLs(""); len(urls) != 0 {
		t.Fatalf("empty -workers parsed to %v", urls)
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}
