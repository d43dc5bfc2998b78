package frt

// Benchmarks for the live-update path at serving scale (n = 4096, K = 16,
// the direct pipeline): one single-edge reweight absorbed incrementally —
// repair + tree patch + fresh OracleIndex, i.e. everything POST /update does
// — against the full frozen-randomness rebuild it replaces. The acceptance
// bar for the dynamic path is incremental ≥ 10× faster than the rebuild.
// UpdateCycle runs the serving benchmark's /update script shape in-process
// and splits each cycle into repair and reindex time. Part of the bench-mbf
// tier; IncrementalUpdate is pinned by bench-gate.

import (
	"sync"
	"testing"
	"time"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

var updateFix struct {
	once sync.Once
	d    *DynamicEnsemble
	edge graph.Edge
	err  error
}

func updateFixture(b *testing.B) *DynamicEnsemble {
	b.Helper()
	updateFix.once.Do(func() {
		g := graph.RandomConnected(4096, 16384, 10, par.NewRNG(3))
		updateFix.d, updateFix.err = NewDynamicEnsemble(g, 16, par.NewRNG(4), nil)
		if updateFix.err == nil {
			updateFix.edge = g.Edges()[1234]
		}
	})
	if updateFix.err != nil {
		b.Fatal(updateFix.err)
	}
	return updateFix.d
}

func BenchmarkIncrementalUpdate(b *testing.B) {
	d := updateFixture(b)
	e := updateFix.edge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate the weight so every iteration is a real edit (half of
		// them decreases, half non-monotone increases).
		w := e.Weight / 2
		if i%2 == 1 {
			w = e.Weight
		}
		if _, err := d.ApplyEdits([]graph.Edit{
			{Op: graph.EditReweight, U: e.U, V: e.V, Weight: w},
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Ensemble().Index(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalUpdateBaseline is the cost the incremental path
// replaces: a full rebuild of the same ensemble (frozen randomness) plus
// reindex, after the same single-edge edit.
func BenchmarkIncrementalUpdateBaseline(b *testing.B) {
	d := updateFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := NewDynamicEnsembleWith(d.Graph(), d.orders, d.betas, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ref.Ensemble().Index(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateCycle is perfbench's serve-update shape without HTTP: the
// n = 2048, m = 4n, K = 16 live ensemble absorbs cycles of six one-edit
// batches that return the graph to its start state — halve and restore an
// edge weight, delete and reinsert a non-bridge edge, insert and delete a
// new edge — each followed by the fresh OracleIndex POST /update builds.
// One op is one cycle; apply_ms/cycle and index_ms/cycle split it into
// ApplyEdits and Index time.
func BenchmarkUpdateCycle(b *testing.B) {
	g := graph.RandomConnected(2048, 8192, 10, par.NewRNG(1))
	d, err := NewDynamicEnsemble(g, 16, par.NewRNG(1), nil)
	if err != nil {
		b.Fatal(err)
	}
	edges := g.Edges()
	rng := par.NewRNG(1 ^ 0xed17)
	pick := func() graph.Edge { return edges[rng.Intn(len(edges))] }
	cycle := func() []graph.Edit {
		e1, e2 := pick(), pick()
		for {
			g2, _, err := graph.ApplyEdits(g, []graph.Edit{{Op: graph.EditDelete, U: e2.U, V: e2.V}})
			if err == nil && g2.Connected() {
				break
			}
			e2 = pick()
		}
		var u, v graph.Node
		for {
			u, v = graph.Node(rng.Intn(g.N())), graph.Node(rng.Intn(g.N()))
			if _, ok := g.HasEdge(u, v); u != v && !ok {
				break
			}
		}
		w := pick().Weight
		return []graph.Edit{
			{Op: graph.EditReweight, U: e1.U, V: e1.V, Weight: e1.Weight / 2},
			{Op: graph.EditReweight, U: e1.U, V: e1.V, Weight: e1.Weight},
			{Op: graph.EditDelete, U: e2.U, V: e2.V},
			{Op: graph.EditInsert, U: e2.U, V: e2.V, Weight: e2.Weight},
			{Op: graph.EditInsert, U: u, V: v, Weight: w},
			{Op: graph.EditDelete, U: u, V: v},
		}
	}
	var apply, index time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		edits := cycle()
		b.StartTimer()
		for _, e := range edits {
			t0 := time.Now()
			if _, err := d.ApplyEdits([]graph.Edit{e}); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			if _, err := d.Ensemble().Index(); err != nil {
				b.Fatal(err)
			}
			apply += t1.Sub(t0)
			index += time.Since(t1)
		}
	}
	b.ReportMetric(float64(apply.Microseconds())/1e3/float64(b.N), "apply_ms/cycle")
	b.ReportMetric(float64(index.Microseconds())/1e3/float64(b.N), "index_ms/cycle")
}
