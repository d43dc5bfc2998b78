package frt

import (
	"bytes"
	"strings"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// validTreeText serialises a real sampled tree — the fuzz corpus seed that
// lets the mutator start from accepted input instead of flailing at the
// header grammar.
func validTreeText(seed uint64, n, m int) string {
	rng := par.NewRNG(seed)
	g := graph.RandomConnected(n, m, 6, rng)
	emb, err := SampleOnGraph(g, rng, nil)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := WriteTree(&buf, emb.Tree); err != nil {
		panic(err)
	}
	return buf.String()
}

// FuzzReadTree asserts the parser's hostile-input contract: arbitrary bytes
// either parse into a tree that passes Validate and round-trips through
// WriteTree/ReadTree unchanged, or produce an error — never a panic, an
// invalid tree, or memory proportional to counts the input merely declares
// (allocation grows only with input actually consumed, so the fuzz engine's
// default memory limit doubles as the over-allocation check).
func FuzzReadTree(f *testing.F) {
	f.Add([]byte(validTreeText(1, 12, 24)))
	f.Add([]byte(validTreeText(2, 5, 8)))
	f.Add([]byte("t 1 1 1.5\nn 0 -1 0 0 0\nl 0 0\n"))
	f.Add([]byte("t 2 1 1.25\nn 0 -1 1 0 0\nn 1 0 0 0 2.5\nl 0 1\n"))
	f.Add([]byte("# comment\n\nt 1 1 1\nn 0 -1 0 0 0\nl 0 0\n"))
	f.Add([]byte("t 99999999 99999999 1.5\n"))      // hostile header: declares huge counts
	f.Add([]byte("t 2 1 1.5\nn 1 0 0 0 1\n"))       // out-of-order node id
	f.Add([]byte("t 1 1 NaN\nn 0 -1 0 0 0\nl 0 0")) // non-finite beta
	f.Add([]byte("t -1 -1 1.5\n"))
	f.Add([]byte("t 1 1 1.5\nn 0 0 0 0 1\nl 0 0\n")) // self-parent cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTree(bytes.NewReader(data))
		if err != nil {
			return // rejected: the only other acceptable outcome
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("accepted tree fails Validate: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteTree(&buf, tr); werr != nil {
			t.Fatalf("accepted tree does not serialise: %v", werr)
		}
		tr2, rerr := ReadTree(&buf)
		if rerr != nil {
			t.Fatalf("accepted tree does not round-trip: %v\n%s", rerr, buf.String())
		}
		if tr2.NumNodes() != tr.NumNodes() || len(tr2.Leaf) != len(tr.Leaf) {
			t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d leaves",
				tr.NumNodes(), tr2.NumNodes(), len(tr.Leaf), len(tr2.Leaf))
		}
		// An accepted tree must also index: the query layer inherits the
		// parser's trust, so anything Validate admits NewTreeIndex and
		// NewOracleIndex must too, and the oracle must answer the walk's
		// bits.
		if _, ierr := NewTreeIndex(tr); ierr != nil {
			t.Fatalf("accepted tree refuses to index: %v", ierr)
		}
		idx, ierr := NewOracleIndex([]*Tree{tr})
		if ierr != nil {
			t.Fatalf("accepted tree refuses an oracle index: %v", ierr)
		}
		n := len(tr.Leaf)
		for _, p := range []Pair{{0, graph.Node(n - 1)}, {graph.Node(n / 2), 0}, {graph.Node(n - 1), graph.Node(n / 3)}} {
			if got, want := idx.Min(p.U, p.V), tr.Dist(p.U, p.V); got != want {
				t.Fatalf("oracle Min(%d,%d) = %v, walk %v", p.U, p.V, got, want)
			}
		}
	})
}

// TestReadTreeHostileHeaders pins the over-allocation guard deterministically
// (the fuzz target only exercises it under the fuzz engine): headers
// declaring huge or inconsistent counts fail fast without allocating
// anything proportional to the declaration.
func TestReadTreeHostileHeaders(t *testing.T) {
	cases := []struct{ name, src string }{
		{"huge counts, no records", "t 2000000000 2000000000 1.5\n"},
		{"beyond int32", "t 4000000000 1 1.5\n"},
		{"more leaves than nodes", "t 1 5 1.5\nn 0 -1 0 0 0\n"},
		{"node id skips ahead", "t 3 1 1.5\nn 0 -1 1 0 0\nn 2 0 0 0 1\n"},
		{"leaf id skips ahead", "t 2 2 1.5\nn 0 -1 1 0 0\nn 1 0 0 0 1\nl 1 1\n"},
		{"negative node id", "t 1 1 1.5\nn -1 -1 0 0 0\nl 0 0\n"},
	}
	for _, c := range cases {
		if _, err := ReadTree(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
