package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
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
// endpoints).
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var b *Builder
	declared := -1
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
	g := b.Freeze()
	if g.M() != declared {
		return nil, fmt.Errorf("header declares %d edges, found %d", declared, g.M())
	}
	return g, nil
}

// This file also implements the 9th DIMACS Implementation Challenge
// shortest-path format used by the public road-network instances:
//
//	c <comment>
//	p sp <n> <m>       — node count and directed-arc count
//	a <u> <v> <w>      — one directed arc per line, 1-based endpoints
//
// Road instances list both directions of every road segment, so an m-arc
// file freezes into an undirected graph with up to m/2 edges (Freeze
// collapses the reverse copies, keeping the lighter one on asymmetric
// pairs). ReadDIMACS is a streaming parser: it tokenises each line with a
// hand-rolled integer scanner instead of fmt.Sscanf, which keeps the load
// of a 2^20-node instance allocation-free per line and roughly 20× faster
// than the reflective scan — the difference between seconds and minutes on
// real road files.

// dimacsFields splits a line into at most 4 whitespace-separated byte
// fields without allocating. It returns the field count.
func dimacsFields(line []byte, out *[4][]byte) int {
	nf := 0
	i := 0
	for i < len(line) && nf < 4 {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
			i++
		}
		out[nf] = line[start:i]
		nf++
	}
	// Trailing junk beyond 4 fields is a format error; signal with -1.
	for i < len(line) {
		if line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
			return -1
		}
		i++
	}
	return nf
}

// dimacsUint parses a non-negative decimal integer field.
func dimacsUint(f []byte) (int64, bool) {
	if len(f) == 0 || len(f) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range f {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// dimacsWeight parses an arc weight: a plain integer on the fast path
// (every challenge instance), a float via strconv otherwise.
func dimacsWeight(f []byte) (float64, bool) {
	if v, ok := dimacsUint(f); ok {
		return float64(v), true
	}
	w, err := strconv.ParseFloat(string(f), 64)
	return w, err == nil
}

// ReadDIMACS parses a graph in DIMACS shortest-path (.gr) format. Arc
// endpoints are converted from 1-based to the library's 0-based nodes;
// self-loops are rejected, and reverse/parallel arcs collapse to the
// lightest copy in Freeze. The arc count declared by the header is an upper
// bound on lines, not validated against the frozen edge count (paired
// reverse arcs halve it). The returned graph is exactly what the file
// describes — callers needing the §1.2 connectivity assumption should check
// Connected themselves.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var b *Builder
	declared, seen := int64(-1), int64(0)
	lineNo := 0
	var fields [4][]byte
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		// Skip comments before tokenising: their free text is not bound by
		// the 4-field limit of the structured lines.
		i := 0
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i >= len(line) {
			continue
		}
		if line[i] == 'c' && (i+1 >= len(line) || line[i+1] == ' ' || line[i+1] == '\t' || line[i+1] == '\r') {
			continue
		}
		nf := dimacsFields(line, &fields)
		if nf <= 0 || len(fields[0]) != 1 {
			return nil, fmt.Errorf("line %d: malformed line", lineNo)
		}
		switch fields[0][0] {
		case 'p':
			if b != nil {
				return nil, fmt.Errorf("line %d: duplicate problem line", lineNo)
			}
			if nf != 4 || string(fields[1]) != "sp" {
				return nil, fmt.Errorf("line %d: problem line must be \"p sp <n> <m>\"", lineNo)
			}
			n, okN := dimacsUint(fields[2])
			m, okM := dimacsUint(fields[3])
			if !okN || !okM || n > int64(math.MaxInt32) {
				return nil, fmt.Errorf("line %d: bad problem sizes", lineNo)
			}
			if err := checkArcCapacity(int(m)); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			b = NewBuilder(int(n))
			b.edges = make([]Edge, 0, m)
			declared = m
		case 'a':
			if b == nil {
				return nil, fmt.Errorf("line %d: arc before problem line", lineNo)
			}
			if nf != 4 {
				return nil, fmt.Errorf("line %d: arc line must be \"a <u> <v> <w>\"", lineNo)
			}
			u, okU := dimacsUint(fields[1])
			v, okV := dimacsUint(fields[2])
			w, okW := dimacsWeight(fields[3])
			if !okU || !okV || !okW {
				return nil, fmt.Errorf("line %d: malformed arc", lineNo)
			}
			if u < 1 || v < 1 || u > int64(b.N()) || v > int64(b.N()) {
				return nil, fmt.Errorf("line %d: arc endpoint out of range 1..%d", lineNo, b.N())
			}
			if u == v {
				return nil, fmt.Errorf("line %d: self-loop at node %d", lineNo, u)
			}
			if !(w > 0) || math.IsInf(w, 0) { // !(w > 0) also rejects NaN
				return nil, fmt.Errorf("line %d: invalid arc weight", lineNo)
			}
			seen++
			if seen > declared {
				return nil, fmt.Errorf("line %d: more arcs than the %d declared", lineNo, declared)
			}
			b.Add(Node(u-1), Node(v-1), w)
		default:
			return nil, fmt.Errorf("line %d: unrecognised line type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("missing problem line")
	}
	return b.FreezeChecked()
}

// WriteDIMACS serialises g in DIMACS shortest-path format, emitting both
// directed halves of every edge (the road-instance convention, so a
// round-trip through ReadDIMACS reproduces g exactly).
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "c parmbf graph: %d nodes, %d undirected edges\n", g.N(), g.M()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "p sp %d %d\n", g.N(), 2*g.M()); err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Neighbors(Node(u)) {
			if _, err := fmt.Fprintf(bw, "a %d %d %g\n", u+1, a.To+1, a.Weight); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load returns the graph a command line names: the edge-list file in when
// it is non-empty, otherwise a fresh graph from the generator gen (random,
// grid, path, cycle, geometric, lollipop or powerlaw) with about n nodes,
// drawn from rng. m is the random generator's edge count (≤ 0: 4n).
func Load(in, gen string, n, m int, rng *par.RNG) (*Graph, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Read(f)
	}
	switch gen {
	case "random":
		if m <= 0 {
			m = 4 * n
		}
		return RandomConnected(n, m, 10, rng), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return GridGraph(side, side, 10, rng), nil
	case "path":
		return PathGraph(n, 1), nil
	case "cycle":
		return CycleGraph(n, 1), nil
	case "geometric":
		return RandomGeometric(n, 0.15, rng), nil
	case "lollipop":
		return Lollipop(n/4, 3*n/4), nil
	case "powerlaw":
		return BarabasiAlbert(n, 3, 10, rng), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}
