package frt

import (
	"bufio"
	"fmt"
	"io"
)

// This file provides tree export to a plain-text format:
//
//	t <numTreeNodes> <numLeaves> <beta>
//	n <id> <parent> <level> <center> <edgeWeight>    (one per tree node)
//	l <graphNode> <treeNode>                         (one per leaf)
//
// Parents use -1 for the root; ids are dense and 0-based. Node lines come
// in id order and leaf lines in graph-node order. The format is written for
// inspection and fingerprinting; the binary snapshot (ReadSnapshot) is the
// tree input.

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
