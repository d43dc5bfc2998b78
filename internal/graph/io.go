package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"parmbf/internal/par"
)

// This file implements a plain-text edge-list format for graphs:
//
//	# comment lines and blank lines are ignored
//	p <n> <m>          — header: node and edge counts
//	e <u> <v> <w>      — one undirected edge per line, 0-based endpoints
//
// The format is a light variant of the DIMACS shortest-path format, kept
// self-describing so example inputs can be versioned alongside the code.
// It is the one graph file format of the library: the -in flag of the
// commands and the benchmark harness both read it.

// Write serialises g in the edge-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "e %d %d %g\n", e.U, e.V, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph in the edge-list format. It validates the header
// against the frozen edge count (parallel edges collapse to the lightest)
// and re-applies all Graph invariants (positive weights, no loops, in-range
// endpoints). A node count beyond the int32 node-id range, or an edge count
// beyond the CSR offset range, is an error, never a panic. So is a node
// count above the edge lines + 1, checked before anything n-sized is
// allocated: such a graph cannot be connected (§1.2), which every consumer
// needs, and memory stays proportional to the input.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<24)
	var b *Builder
	declared, edgeLines := -1, 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "p "):
			if b != nil {
				return nil, fmt.Errorf("line %d: duplicate header", lineNo)
			}
			var n, m int
			if _, err := fmt.Sscanf(line, "p %d %d", &n, &m); err != nil {
				return nil, fmt.Errorf("line %d: bad header %q: %v", lineNo, line, err)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("line %d: negative sizes", lineNo)
			}
			if n > math.MaxInt32 {
				return nil, fmt.Errorf("line %d: %d nodes exceed the int32 node-id range", lineNo, n)
			}
			b = NewBuilder(n)
			declared = m
		case strings.HasPrefix(line, "e "):
			if b == nil {
				return nil, fmt.Errorf("line %d: edge before header", lineNo)
			}
			var u, v int
			var w float64
			if _, err := fmt.Sscanf(line, "e %d %d %g", &u, &v, &w); err != nil {
				return nil, fmt.Errorf("line %d: bad edge %q: %v", lineNo, line, err)
			}
			if u < 0 || u >= b.N() || v < 0 || v >= b.N() || u == v ||
				!(w > 0) || math.IsInf(w, 0) { // !(w > 0) also rejects NaN
				return nil, fmt.Errorf("line %d: invalid edge %q", lineNo, line)
			}
			b.Add(Node(u), Node(v), w)
			edgeLines++
		default:
			return nil, fmt.Errorf("line %d: unrecognised line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("missing header")
	}
	if b.N() > edgeLines+1 {
		return nil, fmt.Errorf("%d nodes cannot be connected by %d edges", b.N(), edgeLines)
	}
	g, err := b.FreezeChecked()
	if err != nil {
		return nil, err
	}
	if g.M() != declared {
		return nil, fmt.Errorf("header declares %d edges, found %d", declared, g.M())
	}
	return g, nil
}

// Load returns the graph a command line names: the edge-list file in when
// it is non-empty, otherwise a fresh graph from the generator gen (random,
// grid, path, cycle, geometric, lollipop or powerlaw) with about n nodes,
// drawn from rng. m is the random generator's edge count (≤ 0: 4n). A size
// outside the generator's domain is an error that names its bound.
func Load(in, gen string, n, m int, rng *par.RNG) (*Graph, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Read(f)
	}
	needN := func(min int) error {
		return fmt.Errorf("generator %q needs n ≥ %d, got %d", gen, min, n)
	}
	switch gen {
	case "random":
		if m <= 0 {
			m = 4 * n
		}
		if n < 1 || m < n-1 || m > n*(n-1)/2 {
			return nil, fmt.Errorf("generator \"random\" needs n ≥ 1 and n−1 ≤ m ≤ n(n−1)/2, got n=%d m=%d", n, m)
		}
		return RandomConnected(n, m, 10, rng), nil
	case "grid":
		if n < 1 {
			return nil, needN(1)
		}
		side := 1
		for side*side < n {
			side++
		}
		return GridGraph(side, side, 10, rng), nil
	case "path":
		if n < 1 {
			return nil, needN(1)
		}
		return PathGraph(n, 1), nil
	case "cycle":
		if n < 3 {
			return nil, needN(3)
		}
		return CycleGraph(n, 1), nil
	case "geometric":
		if n < 1 {
			return nil, needN(1)
		}
		return RandomGeometric(n, 0.15, rng), nil
	case "lollipop":
		// The path hangs off the clique, so the graph needs a clique node.
		if n < 4 {
			return nil, needN(4)
		}
		return Lollipop(n/4, 3*n/4), nil
	case "powerlaw":
		if n < 1 {
			return nil, needN(1)
		}
		return BarabasiAlbert(n, 3, 10, rng), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}
