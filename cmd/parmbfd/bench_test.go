package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// The serving benchmarks measure the HTTP tier end to end on a loopback
// fixture (n=1024, K=8, 256-pair batches): one server answering /batch
// directly, and a 3-worker fleet behind the router answering the same batch
// via pertree fan-out + merge. The delta between the two is the sharding
// overhead a multi-machine deployment pays per batch.
var fleetFix struct {
	once sync.Once
	ens  *frt.Ensemble
	meta frt.SnapshotMeta
	body string
	err  error
}

func fleetFixture(b *testing.B) (*frt.Ensemble, frt.SnapshotMeta, string) {
	b.Helper()
	fleetFix.once.Do(func() {
		rng := par.NewRNG(3)
		g := graph.RandomConnected(1024, 4096, 8, rng)
		fleetFix.ens = &frt.Ensemble{}
		for range 8 {
			emb, err := frt.SampleOnGraph(g, rng, nil)
			if err != nil {
				fleetFix.err = err
				return
			}
			fleetFix.ens.Trees = append(fleetFix.ens.Trees, emb.Tree)
		}
		fleetFix.meta = frt.SnapshotMeta{GraphNodes: g.N(), GraphEdges: g.M()}
		req := batchRequest{Pairs: make([][2]int64, 256)}
		prng := par.NewRNG(4)
		for i := range req.Pairs {
			req.Pairs[i] = [2]int64{int64(prng.Intn(g.N())), int64(prng.Intn(g.N()))}
		}
		body, err := json.Marshal(req)
		if err != nil {
			fleetFix.err = err
			return
		}
		fleetFix.body = string(body)
	})
	if fleetFix.err != nil {
		b.Fatal(fleetFix.err)
	}
	return fleetFix.ens, fleetFix.meta, fleetFix.body
}

func benchPost(b *testing.B, hc *http.Client, url, body string) {
	b.Helper()
	resp, err := hc.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var br batchResponse
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(br.Dists) != 256 {
		b.Fatalf("batch: status %d, %d dists", resp.StatusCode, len(br.Dists))
	}
}

// BenchmarkServerBatch1024 is one server, one 256-pair /batch per op,
// loopback HTTP included.
func BenchmarkServerBatch1024(b *testing.B) {
	ens, meta, body := fleetFixture(b)
	s, err := newServer(nil, ens, meta, nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, hc, ts.URL+"/batch", body)
	}
}

// BenchmarkFleetBatch1024 is the same batch through a router sharding K=8
// across 3 workers (shards 3/3/2): per op, three pertree subrequests fan
// out, three partial blocks come back, and the router merges them.
func BenchmarkFleetBatch1024(b *testing.B) {
	ens, meta, body := fleetFixture(b)
	var urls []string
	for i := 0; i < 3; i++ {
		ws, err := newServer(nil, ens, meta, nil)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(ws.mux())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	rt, err := newRouter(urls, 16, 10*time.Second, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.mux())
	defer rts.Close()
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, hc, rts.URL+"/batch", body)
	}
}
