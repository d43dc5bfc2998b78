package frt

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// validSnapshotBytes serialises a real sampled ensemble — the corpus seed
// that lets the mutator start from accepted input instead of flailing at the
// header grammar.
func validSnapshotBytes(seed uint64, n, m, trees int) []byte {
	rng := par.NewRNG(seed)
	g := graph.RandomConnected(n, m, 6, rng)
	ens, err := sampleEnsemble(trees, func() (*Embedding, error) { return SampleOnGraph(g, rng, nil) })
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ens, SnapshotMeta{GraphEdges: g.M()}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot asserts the hostile-input contract of the tree input:
// arbitrary bytes either parse into an ensemble whose every tree passes
// Validate, indexes cleanly, answers Min and TreeDist with Tree.Dist's bits,
// and round-trips through WriteSnapshot/ReadSnapshot unchanged — or produce
// an error. Never
// a panic, and never memory proportional to counts a header merely declares
// (the fuzz engine's memory limit doubles as the over-allocation check:
// tiny inputs declaring 2^50 trees must fail before allocating).
func FuzzReadSnapshot(f *testing.F) {
	good := validSnapshotBytes(1, 12, 30, 3)
	f.Add(good)
	f.Add(validSnapshotBytes(2, 5, 10, 1))
	f.Add(good[:len(good)/2])               // truncated mid-section
	f.Add(good[:len(good)-3])               // truncated trailer
	f.Add([]byte("PMBFSNAP"))               // magic only
	f.Add([]byte("not a snapshot at all"))  // garbage
	corrupt := append([]byte(nil), good...) // flipped payload byte
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt)
	hugeHeader := append([]byte(nil), good...) // hostile declared section count
	binary.LittleEndian.PutUint32(hugeHeader[12:], 1<<31-1)
	f.Add(hugeHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		ens, meta, err := ReadSnapshot(data)
		if err != nil {
			return // rejected: the only other acceptable outcome
		}
		for i, tr := range ens.Trees {
			if verr := tr.Validate(); verr != nil {
				t.Fatalf("accepted snapshot tree %d fails Validate: %v", i, verr)
			}
		}
		// The query layer inherits the parser's trust: anything accepted
		// must index, and the index must answer the walk's bits.
		idx, ierr := NewOracleIndex(ens.Trees)
		if ierr != nil {
			t.Fatalf("accepted snapshot refuses to index: %v", ierr)
		}
		n := meta.GraphNodes
		for _, p := range []Pair{{0, graph.Node(n - 1)}, {graph.Node(n / 2), 0}, {graph.Node(n - 1), graph.Node(n / 3)}} {
			if got, want := idx.Min(p.U, p.V), ens.minWalk(p.U, p.V); got != want {
				t.Fatalf("Min(%d,%d) = %v, walk %v", p.U, p.V, got, want)
			}
			for i, tr := range ens.Trees {
				if got, want := idx.TreeDist(p.U, p.V, i), tr.Dist(p.U, p.V); got != want {
					t.Fatalf("tree %d: TreeDist(%d,%d) = %v, walk %v", i, p.U, p.V, got, want)
				}
			}
		}
		// Canonical round trip: re-serialising what was read must restore
		// the identical ensemble (unknown sections are dropped, everything
		// else is preserved bit-for-bit).
		var buf bytes.Buffer
		if werr := WriteSnapshot(&buf, ens, meta); werr != nil {
			t.Fatalf("accepted snapshot does not re-serialise: %v", werr)
		}
		ens2, meta2, rerr := ReadSnapshot(buf.Bytes())
		if rerr != nil {
			t.Fatalf("accepted snapshot does not round-trip: %v", rerr)
		}
		if meta2 != meta {
			t.Fatalf("round trip changed meta: %+v vs %+v", meta2, meta)
		}
		if !reflect.DeepEqual(ens.Trees, ens2.Trees) {
			t.Fatal("round trip changed trees")
		}
	})
}
