package graph

import (
	"math"
	"reflect"
	"testing"

	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// FuzzApplyUpdates throws hostile edit batches — dangling endpoints, NaN,
// negative, zero, and infinite weights, duplicate and unknown edits — at
// ApplyEdits and checks the transactional contract: it never panics, a
// rejected batch changes nothing, and an accepted batch yields a symmetric
// loop-free graph with finite positive weights whose edge count matches the
// batch arithmetic. The input graph must be untouched either way.
func FuzzApplyUpdates(f *testing.F) {
	f.Add([]byte{0, 0, 1, 64, 0})
	f.Add([]byte{1, 2, 3, 0, 0, 2, 4, 5, 255, 9})
	f.Add([]byte{2, 200, 1, 128, 7, 0, 6, 6, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := RandomConnected(24, 60, 8, par.NewRNG(4))
		before := g.Edges()

		// Decode 5 bytes per edit: op, u, v, weight selector, weight byte.
		var edits []Edit
		for i := 0; i+5 <= len(data) && len(edits) < 64; i += 5 {
			var w float64
			switch data[i+3] % 8 {
			case 0:
				w = math.NaN()
			case 1:
				w = semiring.Inf
			case 2:
				w = -float64(data[i+4])
			case 3:
				w = 0
			default:
				w = float64(data[i+4]) / 4
			}
			edits = append(edits, Edit{
				Op:     EditOp(data[i] % 5), // includes two invalid op values
				U:      Node(int(data[i+1]) - 2),
				V:      Node(int(data[i+2]) - 2),
				Weight: w,
			})
		}

		g2, sum, err := ApplyEdits(g, edits)
		if !reflect.DeepEqual(before, g.Edges()) {
			t.Fatal("ApplyEdits modified its input graph")
		}
		if err != nil {
			if g2 != nil {
				t.Fatal("error return carried a graph")
			}
			return
		}
		if g2.M() != g.M()+sum.Inserts-sum.Deletes {
			t.Fatalf("M=%d after %d inserts, %d deletes of m=%d", g2.M(), sum.Inserts, sum.Deletes, g.M())
		}
		if !detectSymmetric(g2) {
			t.Fatal("edited graph is not symmetric")
		}
		for _, e := range g2.Edges() {
			if e.U == e.V || !(e.Weight > 0) || semiring.IsInf(e.Weight) {
				t.Fatalf("invalid surviving edge %+v", e)
			}
		}
		for _, ae := range sum.Applied {
			w, exists := g2.HasEdge(ae.U, ae.V)
			switch ae.Op {
			case EditDelete:
				if exists {
					t.Fatalf("deleted edge {%d,%d} still present", ae.U, ae.V)
				}
			default:
				if !exists || w != ae.Weight {
					t.Fatalf("edit %+v not reflected: weight %v exists %v", ae, w, exists)
				}
			}
		}
	})
}
