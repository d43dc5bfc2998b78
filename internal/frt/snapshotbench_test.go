package frt

import (
	"bytes"
	"sync"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// The snapshot benchmarks quantify what -save / -load buy: cold-starting a
// server from a snapshot (parse + reindex) versus re-running tree sampling
// from scratch, on the same n=4096, K=16 fixture as the Oracle* benchmarks.
// The serving acceptance bar is SnapshotLoad4096 ≥ 50× faster than
// OracleRebuild4096.
var snapFix struct {
	once sync.Once
	data []byte
	err  error
}

func snapshotFixture(b *testing.B) []byte {
	b.Helper()
	ens, _, _ := oracleFixture(b)
	snapFix.once.Do(func() {
		var buf bytes.Buffer
		snapFix.err = WriteSnapshot(&buf, ens, SnapshotMeta{GraphNodes: 4096, GraphEdges: 16384})
		snapFix.data = buf.Bytes()
	})
	if snapFix.err != nil {
		b.Fatal(snapFix.err)
	}
	return snapFix.data
}

// BenchmarkSnapshotWrite4096 measures serialising the built ensemble (the
// -save path, minus the fsync).
func BenchmarkSnapshotWrite4096(b *testing.B) {
	ens, _, _ := oracleFixture(b)
	meta := SnapshotMeta{GraphNodes: 4096, GraphEdges: 16384}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteSnapshot(&buf, ens, meta); err != nil {
			b.Fatal(err)
		}
	}
	sinkBytes = buf.Bytes()
}

// BenchmarkSnapshotLoad4096 is the -load cold-start path: parse + validate
// the snapshot and rebuild the query index. Everything else a loading server
// does is O(1).
func BenchmarkSnapshotLoad4096(b *testing.B) {
	data := snapshotFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens, _, err := ReadSnapshot(data)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := NewOracleIndex(ens.Trees)
		if err != nil {
			b.Fatal(err)
		}
		sinkIndex = idx
	}
}

// BenchmarkOracleRebuild4096 is the no-snapshot baseline the load path is
// measured against: sample the K=16 ensemble from the graph and index it,
// exactly what a server without -load does at startup. ns/op here divided by
// SnapshotLoad4096's is the cold-start speedup a snapshot buys.
func BenchmarkOracleRebuild4096(b *testing.B) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(4096, 16384, 8, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens, err := sampleEnsemble(16, func() (*Embedding, error) {
			return SampleOnGraph(g, rng, nil)
		})
		if err != nil {
			b.Fatal(err)
		}
		idx, err := NewOracleIndex(ens.Trees)
		if err != nil {
			b.Fatal(err)
		}
		sinkIndex = idx
	}
}

var sinkBytes []byte
