package graph

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"parmbf/internal/par"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rng := par.NewRNG(1)
	g := RandomConnected(30, 70, 6, rng)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d", got.N(), got.M(), g.N(), g.M())
	}
	want := g.Edges()
	have := got.Edges()
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("edge %d: %v vs %v", i, have[i], want[i])
		}
	}
}

// ioSeed drives the round-trip property test with random seeds and a random
// generator choice.
type ioSeed struct {
	Seed uint64
	Kind uint8
}

// Generate implements quick.Generator.
func (ioSeed) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(ioSeed{Seed: r.Uint64(), Kind: uint8(r.Intn(4))})
}

// TestQuickWriteReadRoundTrip is the property test of the edge-list format:
// for randomly generated graphs of every generator family, write → read
// reproduces the graph exactly (sizes, edge order, and weights — the %g
// encoding round-trips float64 exactly).
func TestQuickWriteReadRoundTrip(t *testing.T) {
	f := func(s ioSeed) bool {
		rng := par.NewRNG(s.Seed)
		n := 10 + int(s.Seed%20)
		var g *Graph
		switch s.Kind {
		case 0:
			g = RandomConnected(n, 3*n, 9, rng)
		case 1:
			g = GridGraph(3+int(s.Seed%4), 3+int(s.Seed%5), 7, rng)
		case 2:
			g = BarabasiAlbert(n, 3, 5, rng)
		default:
			g = RandomGeometric(n, 0.4, rng)
		}
		var buf bytes.Buffer
		if Write(&buf, g) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.N() == g.N() && got.M() == g.M() &&
			reflect.DeepEqual(got.Edges(), g.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAcceptsCommentsAndBlanks(t *testing.T) {
	src := `
# a triangle
p 3 3

e 0 1 1.5
# middle comment
e 1 2 2
e 0 2 0.25
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("parsed %d nodes %d edges", g.N(), g.M())
	}
	if w, _ := g.HasEdge(0, 2); w != 0.25 {
		t.Fatalf("weight = %v", w)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no header", "e 0 1 1\n"},
		{"duplicate header", "p 2 0\np 2 0\n"},
		{"bad header", "p x y\n"},
		{"edge count mismatch", "p 3 2\ne 0 1 1\n"},
		{"loop", "p 2 1\ne 1 1 1\n"},
		{"negative weight", "p 2 1\ne 0 1 -2\n"},
		{"out of range", "p 2 1\ne 0 5 1\n"},
		{"garbage line", "p 2 1\nq 0 1 1\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

// TestReadRejectsNodeCountBeyondInt32: node ids are int32, so a header
// above MaxInt32 must be an error. Without the guard, Node(u) wraps the
// in-range edge endpoint 2^31 to −2^31 and Builder.Add panics.
func TestReadRejectsNodeCountBeyondInt32(t *testing.T) {
	if _, err := Read(strings.NewReader(hugeHeaderInput)); err == nil {
		t.Fatal("accepted a header with 2^31+1 nodes")
	}
}

// hugeHeaderInput declares one node more than 2^31 and an edge whose first
// endpoint is 2^31: in range for the header, out of range for an int32 id.
const hugeHeaderInput = "p 2147483649 1\ne 2147483648 0 1\n"

// TestReadBoundsAllocationByInput pins Read's memory to its input: a header
// declaring more nodes than its edge lines can connect fails before Freeze
// zeroes n-sized tables (three int32 tables of n+1 entries: ~24 GB for the
// 15-byte first input, ~50 MB for the second).
func TestReadBoundsAllocationByInput(t *testing.T) {
	for _, src := range []string{"p 2147483647 0", "p 4194304 1\ne 0 1 1\n"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(strings.NewReader(src))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%q: accepted", src)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%q: allocated %d bytes before failing", src, grew)
		}
	}
}

// FuzzRead drives the edge-list parser behind the commands' -in flag with
// hostile inputs: whatever the bytes, Read must return a graph or an error
// without panicking, and a returned graph must satisfy the invariants the
// library assumes — positive finite weights, in-range targets, no loops,
// arc-level symmetry — and survive Write → Read unchanged. Read allocates in
// proportion to its input, so no header needs skipping.
func FuzzRead(f *testing.F) {
	f.Add([]byte(hugeHeaderInput))
	f.Add([]byte("p 2 1\ne 0 1 3\n"))
	f.Add([]byte("# triangle\np 3 3\n\ne 0 1 1.5\ne 1 2 2\ne 0 2 0.25\n"))
	f.Add([]byte("p 0 0\n"))
	f.Add([]byte("p 2147483647 0"))                     // more nodes than edges connect
	f.Add([]byte("p 2 99999999999999999999999\n"))      // unparseable m
	f.Add([]byte("e 0 1 3\np 2 1\n"))                   // edge before header
	f.Add([]byte("p 2 1\ne 0 1 1e309\n"))               // overflowing weight
	f.Add([]byte("p 3 2\ne 0 1 2\ne 1 0 1\ne 1 2 4\n")) // parallel edges collapse
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for v := 0; v < g.N(); v++ {
			for _, a := range g.Neighbors(Node(v)) {
				if !(a.Weight > 0) || math.IsInf(a.Weight, 0) || a.To == Node(v) || a.To < 0 || int(a.To) >= g.N() {
					t.Fatalf("invalid arc %d→%d w=%g", v, a.To, a.Weight)
				}
			}
		}
		if !detectSymmetric(g) {
			t.Fatal("parsed graph is not symmetric")
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading Write output: %v", err)
		}
		sameGraph(t, g, h)
	})
}

// TestLoadGeneratorBounds runs every generator at n ∈ {−3, 0, 1, 2, 3} and
// the random generator at edge counts outside [n−1, n(n−1)/2]: a size
// outside a generator's domain is an error naming the bound, never a
// panic, and the sizes inside it load the graph they always did.
func TestLoadGeneratorBounds(t *testing.T) {
	const bad = -1 // an error is expected
	cases := []struct {
		gen   string
		m     int
		nodes [5]int // loaded node count at n = −3, 0, 1, 2, 3
	}{
		{"random", 0, [5]int{bad, bad, bad, bad, bad}},
		{"grid", 0, [5]int{bad, bad, 1, 4, 4}},
		{"path", 0, [5]int{bad, bad, 1, 2, 3}},
		{"cycle", 0, [5]int{bad, bad, bad, bad, 3}},
		{"geometric", 0, [5]int{bad, bad, 1, 2, 3}},
		{"lollipop", 0, [5]int{bad, bad, bad, bad, bad}},
		{"powerlaw", 0, [5]int{bad, bad, 1, 2, 3}},
		{"random", 3, [5]int{bad, bad, bad, bad, 3}},
		{"random", 4, [5]int{bad, bad, bad, bad, bad}},
		{"random", 1, [5]int{bad, bad, bad, 2, bad}},
	}
	for _, c := range cases {
		for i, n := range []int{-3, 0, 1, 2, 3} {
			g, err := Load("", c.gen, n, c.m, par.NewRNG(1))
			if want := c.nodes[i]; want == bad {
				if err == nil {
					t.Errorf("%s n=%d m=%d: loaded a %d-node graph, want an error", c.gen, n, c.m, g.N())
				} else if !strings.Contains(err.Error(), c.gen) || !strings.Contains(err.Error(), "≥") {
					t.Errorf("%s n=%d m=%d: error %q does not name the generator's bound", c.gen, n, c.m, err)
				}
			} else if err != nil {
				t.Errorf("%s n=%d m=%d: %v", c.gen, n, c.m, err)
			} else if g.N() != want {
				t.Errorf("%s n=%d m=%d: %d nodes, want %d", c.gen, n, c.m, g.N(), want)
			}
		}
	}
	for _, m := range []int{8, 9, 45, 46} { // n = 10: m ∈ [9, 45] loads
		g, err := Load("", "random", 10, m, par.NewRNG(1))
		if ok := m >= 9 && m <= 45; ok != (err == nil) {
			t.Errorf("random n=10 m=%d: err = %v", m, err)
		} else if ok && g.M() != m {
			t.Errorf("random n=10 m=%d: %d edges", m, g.M())
		}
	}
}
