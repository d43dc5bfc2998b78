package frt

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"parmbf/internal/graph"
)

// This file provides tree export: serialisation to a plain-text format and
// conversion to an explicit weighted graph. The text format is
//
//	t <numTreeNodes> <numLeaves> <beta>
//	n <id> <parent> <level> <center> <edgeWeight>    (one per tree node)
//	l <graphNode> <treeNode>                         (one per leaf)
//
// Parents use -1 for the root; ids are dense and 0-based. Node lines must
// appear in id order (0, 1, 2, …) and leaf lines in graph-node order — the
// order WriteTree emits. The sequential requirement lets ReadTree allocate
// in step with the input it has actually consumed, so a hostile header
// declaring huge counts cannot make it over-allocate.

// WriteTree serialises t.
func WriteTree(w io.Writer, t *Tree) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "t %d %d %g\n", t.NumNodes(), len(t.Leaf), t.Beta); err != nil {
		return err
	}
	for u := 0; u < t.NumNodes(); u++ {
		if _, err := fmt.Fprintf(bw, "n %d %d %d %d %g\n",
			u, t.Parent[u], t.Level[u], t.Center[u], t.EdgeWeight[u]); err != nil {
			return err
		}
	}
	for v, leaf := range t.Leaf {
		if _, err := fmt.Fprintf(bw, "l %d %d\n", v, leaf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxTreeRecords caps the declared record counts of a serialised tree: tree
// node ids are int32, so anything larger cannot round-trip anyway.
const maxTreeRecords = 1<<31 - 1

// ReadTree parses a serialised tree and validates its structural
// invariants. It is hardened against hostile input (the FuzzReadTree
// target): malformed, truncated, or adversarial bytes yield an error —
// never a panic — and memory grows only in proportion to the input actually
// consumed, never to the counts a header merely declares.
func ReadTree(r io.Reader) (*Tree, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<24)
	var t *Tree
	declaredNodes, declaredLeaves := 0, 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "t "):
			if t != nil {
				return nil, fmt.Errorf("line %d: duplicate header", lineNo)
			}
			var nt, nl int
			var beta float64
			if _, err := fmt.Sscanf(line, "t %d %d %g", &nt, &nl, &beta); err != nil {
				return nil, fmt.Errorf("line %d: bad header: %v", lineNo, err)
			}
			if nt <= 0 || nl <= 0 {
				return nil, fmt.Errorf("line %d: non-positive sizes", lineNo)
			}
			if nt > maxTreeRecords || nl > maxTreeRecords {
				return nil, fmt.Errorf("line %d: sizes exceed int32 range", lineNo)
			}
			if nl > nt {
				return nil, fmt.Errorf("line %d: more leaves (%d) than tree nodes (%d)", lineNo, nl, nt)
			}
			declaredNodes, declaredLeaves = nt, nl
			t = &Tree{Beta: beta}
		case strings.HasPrefix(line, "n "):
			if t == nil {
				return nil, fmt.Errorf("line %d: node before header", lineNo)
			}
			var id, parent, level, center int
			var w float64
			if _, err := fmt.Sscanf(line, "n %d %d %d %d %g", &id, &parent, &level, &center, &w); err != nil {
				return nil, fmt.Errorf("line %d: bad node: %v", lineNo, err)
			}
			if id != len(t.Parent) || id >= declaredNodes {
				return nil, fmt.Errorf("line %d: node id %d out of order or range (next is %d of %d)",
					lineNo, id, len(t.Parent), declaredNodes)
			}
			if parent < -1 || parent >= declaredNodes {
				return nil, fmt.Errorf("line %d: parent out of range", lineNo)
			}
			t.Parent = append(t.Parent, int32(parent))
			t.Level = append(t.Level, int32(level))
			t.Center = append(t.Center, graph.Node(center))
			t.EdgeWeight = append(t.EdgeWeight, w)
		case strings.HasPrefix(line, "l "):
			if t == nil {
				return nil, fmt.Errorf("line %d: leaf before header", lineNo)
			}
			var v, leaf int
			if _, err := fmt.Sscanf(line, "l %d %d", &v, &leaf); err != nil {
				return nil, fmt.Errorf("line %d: bad leaf: %v", lineNo, err)
			}
			if v != len(t.Leaf) || v >= declaredLeaves {
				return nil, fmt.Errorf("line %d: leaf node %d out of order or range (next is %d of %d)",
					lineNo, v, len(t.Leaf), declaredLeaves)
			}
			if leaf < 0 || leaf >= declaredNodes {
				return nil, fmt.Errorf("line %d: leaf out of range", lineNo)
			}
			t.Leaf = append(t.Leaf, int32(leaf))
		default:
			return nil, fmt.Errorf("line %d: unrecognised line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("missing header")
	}
	if len(t.Parent) != declaredNodes {
		return nil, fmt.Errorf("header declares %d tree nodes, found %d", declaredNodes, len(t.Parent))
	}
	if len(t.Leaf) != declaredLeaves {
		return nil, fmt.Errorf("header declares %d leaves, found %d", declaredLeaves, len(t.Leaf))
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("invalid tree: %v", err)
	}
	return t, nil
}
