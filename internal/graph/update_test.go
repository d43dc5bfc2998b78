package graph

import (
	"math"
	"reflect"
	"testing"

	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

func editTestGraph() *Graph {
	// 0—1—2—3 path plus chords {0,2} and {1,3}.
	return NewBuilder(4).
		Add(0, 1, 2).Add(1, 2, 3).Add(2, 3, 4).
		Add(0, 2, 10).Add(1, 3, 10).
		Freeze()
}

// edgeSet flattens a graph to its canonical undirected edge list.
func edgeList(g *Graph) []Edge { return g.Edges() }

func TestApplyEditsValidation(t *testing.T) {
	g := editTestGraph()
	cases := []struct {
		name  string
		edits []Edit
	}{
		{"out of range", []Edit{{Op: EditInsert, U: 0, V: 99, Weight: 1}}},
		{"negative node", []Edit{{Op: EditDelete, U: -1, V: 2}}},
		{"loop", []Edit{{Op: EditInsert, U: 2, V: 2, Weight: 1}}},
		{"zero weight", []Edit{{Op: EditInsert, U: 0, V: 3, Weight: 0}}},
		{"negative weight", []Edit{{Op: EditReweight, U: 0, V: 1, Weight: -1}}},
		{"nan weight", []Edit{{Op: EditInsert, U: 0, V: 3, Weight: math.NaN()}}},
		{"inf weight", []Edit{{Op: EditInsert, U: 0, V: 3, Weight: semiring.Inf}}},
		{"unknown op", []Edit{{Op: EditOp(9), U: 0, V: 1}}},
		{"duplicate pair", []Edit{{Op: EditReweight, U: 0, V: 1, Weight: 5}, {Op: EditDelete, U: 1, V: 0}}},
		{"insert existing", []Edit{{Op: EditInsert, U: 1, V: 0, Weight: 1}}},
		{"delete missing", []Edit{{Op: EditDelete, U: 0, V: 3}}},
		{"reweight missing", []Edit{{Op: EditReweight, U: 0, V: 3, Weight: 1}}},
	}
	before := edgeList(g)
	for _, tc := range cases {
		if _, _, err := ApplyEdits(g, tc.edits); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if !reflect.DeepEqual(before, edgeList(g)) {
		t.Fatal("rejected batches modified the input graph")
	}
}

func TestApplyEditsEmptyBatch(t *testing.T) {
	g := editTestGraph()
	g2, sum, err := ApplyEdits(g, nil)
	if err != nil || g2 != g {
		t.Fatalf("empty batch: g2=%p err=%v, want the input graph back", g2, err)
	}
	if len(sum.Applied) != 0 || !sum.DecreaseOnly {
		t.Fatalf("empty batch summary: %+v", sum)
	}
}

// TestApplyEditsReweightCOW pins the reweight-only fast path: the result
// must equal a from-scratch build with the new weights, share the row-offset
// array with the input (structure unchanged ⇒ no rebuild), and leave the
// input graph untouched.
func TestApplyEditsReweightCOW(t *testing.T) {
	g := editTestGraph()
	before := edgeList(g)
	g2, sum, err := ApplyEdits(g, []Edit{
		{Op: EditReweight, U: 2, V: 1, Weight: 7},
		{Op: EditReweight, U: 0, V: 2, Weight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reweights != 2 || sum.DecreaseOnly {
		t.Fatalf("summary: %+v", sum)
	}
	want := NewBuilder(4).
		Add(0, 1, 2).Add(1, 2, 7).Add(2, 3, 4).
		Add(0, 2, 0.5).Add(1, 3, 10).
		Freeze()
	if !reflect.DeepEqual(edgeList(g2), edgeList(want)) {
		t.Fatalf("COW result %v, want %v", edgeList(g2), edgeList(want))
	}
	if &g2.rowStart[0] != &g.rowStart[0] {
		t.Fatal("reweight-only batch rebuilt the row offsets instead of sharing them")
	}
	if !detectSymmetric(g2) {
		t.Fatal("COW result lost symmetry")
	}
	if !reflect.DeepEqual(before, edgeList(g)) {
		t.Fatal("COW modified the input graph")
	}
}

func TestApplyEditsMixedRebuild(t *testing.T) {
	g := editTestGraph()
	g2, sum, err := ApplyEdits(g, []Edit{
		{Op: EditDelete, U: 1, V: 3},
		{Op: EditInsert, U: 0, V: 3, Weight: 1.25},
		{Op: EditReweight, U: 1, V: 2, Weight: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Inserts != 1 || sum.Deletes != 1 || sum.Reweights != 1 || sum.DecreaseOnly {
		t.Fatalf("summary: %+v", sum)
	}
	if want := []Node{0, 1, 2, 3}; !reflect.DeepEqual(sum.Touched, want) {
		t.Fatalf("Touched = %v, want %v", sum.Touched, want)
	}
	want := NewBuilder(4).
		Add(0, 1, 2).Add(1, 2, 6).Add(2, 3, 4).
		Add(0, 2, 10).Add(0, 3, 1.25).
		Freeze()
	if !reflect.DeepEqual(edgeList(g2), edgeList(want)) {
		t.Fatalf("rebuild result %v, want %v", edgeList(g2), edgeList(want))
	}
	if g2.M() != g.M() {
		t.Fatalf("M = %d, want %d", g2.M(), g.M())
	}
}

func TestApplyEditsDecreaseOnlyFlag(t *testing.T) {
	g := editTestGraph()
	_, sum, err := ApplyEdits(g, []Edit{
		{Op: EditInsert, U: 0, V: 3, Weight: 100},
		{Op: EditReweight, U: 0, V: 1, Weight: 1},
	})
	if err != nil || !sum.DecreaseOnly {
		t.Fatalf("insert+decrease: DecreaseOnly=%v err=%v, want true", sum.DecreaseOnly, err)
	}
	_, sum, err = ApplyEdits(g, []Edit{{Op: EditReweight, U: 0, V: 1, Weight: 3}})
	if err != nil || sum.DecreaseOnly {
		t.Fatalf("weight increase: DecreaseOnly=%v err=%v, want false", sum.DecreaseOnly, err)
	}
	if sum.Applied[0].OldWeight != 2 {
		t.Fatalf("OldWeight = %v, want 2", sum.Applied[0].OldWeight)
	}
}

// TestBuilderRoundTrip pins the extend-and-refreeze idiom ApplyEdits builds
// on: Builder() must reproduce the graph exactly and pre-size its edge
// buffer (the zero-capacity append storm was a real regression).
func TestBuilderRoundTrip(t *testing.T) {
	g := RandomConnected(64, 256, 8, par.NewRNG(5))
	b := g.Builder()
	if cap(b.edges) < g.M() {
		t.Fatalf("Builder edge buffer capacity %d < m=%d", cap(b.edges), g.M())
	}
	g2 := b.Freeze()
	if !reflect.DeepEqual(edgeList(g), edgeList(g2)) {
		t.Fatal("Builder().Freeze() is not the identity")
	}
}

// TestApplyEditsRandomDifferential cross-checks ApplyEdits against a naive
// map-based reference over random batches.
func TestApplyEditsRandomDifferential(t *testing.T) {
	rng := par.NewRNG(99)
	g := RandomConnected(48, 140, 8, rng)
	for round := 0; round < 30; round++ {
		ref := make(map[uint64]Edge)
		for _, e := range g.Edges() {
			ref[pairKey(e.U, e.V)] = e
		}
		var edits []Edit
		used := map[uint64]struct{}{}
		for len(edits) < 6 {
			u, v := Node(rng.Intn(48)), Node(rng.Intn(48))
			if u == v {
				continue
			}
			key := pairKey(u, v)
			if _, dup := used[key]; dup {
				continue
			}
			used[key] = struct{}{}
			w := 1 + float64(rng.Intn(16))
			if old, exists := ref[key]; exists {
				if rng.Bool() {
					edits = append(edits, Edit{Op: EditDelete, U: u, V: v})
					delete(ref, key)
				} else {
					edits = append(edits, Edit{Op: EditReweight, U: u, V: v, Weight: w})
					old.Weight = w
					ref[key] = old
				}
			} else {
				edits = append(edits, Edit{Op: EditInsert, U: u, V: v, Weight: w})
				cu, cv := u, v
				if cu > cv {
					cu, cv = cv, cu
				}
				ref[key] = Edge{U: cu, V: cv, Weight: w}
			}
		}
		g2, _, err := ApplyEdits(g, edits)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := NewBuilder(48)
		for _, e := range ref {
			want.Add(e.U, e.V, e.Weight)
		}
		if !reflect.DeepEqual(edgeList(g2), edgeList(want.Freeze())) {
			t.Fatalf("round %d: edited graph diverges from reference", round)
		}
		g = g2
	}
}
