package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// genGraph draws the workload graph: random connected, m = 4n, weights in
// [1, 10] — the same family parmbfd -gen random uses.
func genGraph(n int, rng *par.RNG) *graph.Graph {
	return graph.RandomConnected(n, 4*n, 10, rng)
}

// writeGraph writes g in the edge-list format parmbfd -in reads, and reads it
// back, so in-process replicas start from exactly the graph the server
// parses.
func writeGraph(path string, g *graph.Graph) (*graph.Graph, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

// evalPairs is a seeded pair set with exact graph distances: one Dijkstra
// per source, 32 targets per source.
type evalPairs struct {
	pairs []frt.Pair
	dist  []float64
}

func newEvalPairs(g *graph.Graph, count int, rng *par.RNG) *evalPairs {
	n := g.N()
	sources := max(count/32, 1)
	per := count / sources
	ep := &evalPairs{}
	for s := 0; s < sources; s++ {
		u := graph.Node(rng.Intn(n))
		res := graph.Dijkstra(g, u)
		for len(ep.pairs) < (s+1)*per {
			v := graph.Node(rng.Intn(n))
			if v == u {
				continue
			}
			ep.pairs = append(ep.pairs, frt.Pair{U: u, V: v})
			ep.dist = append(ep.dist, res.Dist[v])
		}
	}
	return ep
}

// stretch evaluates an ensemble on the pair set: the mean per-tree stretch
// dist_T/dist_G over pairs and trees (the quantity the FRT bound speaks
// about), the mean stretch of the index's Min estimator, and the number of
// dominance violations (dist_T < dist_G, which Definition 7.1 forbids).
func (ep *evalPairs) stretch(trees []*frt.Tree, idx *frt.OracleIndex) (perTree, minEst float64, violations int) {
	var sumT, sumMin float64
	mins := idx.MinBatch(ep.pairs, nil)
	for i, p := range ep.pairs {
		d := ep.dist[i]
		for _, t := range trees {
			dt := t.Dist(p.U, p.V)
			if dt < d*(1-1e-9) {
				violations++
			}
			sumT += dt / d
		}
		sumMin += mins[i] / d
	}
	np := float64(len(ep.pairs))
	return sumT / (np * float64(len(trees))), sumMin / np, violations
}

// randomPairs draws count node pairs of an n-node graph.
func randomPairs(n, count int, rng *par.RNG) []frt.Pair {
	ps := make([]frt.Pair, count)
	for i := range ps {
		ps[i] = frt.Pair{U: graph.Node(rng.Intn(n)), V: graph.Node(rng.Intn(n))}
	}
	return ps
}

// vmHWM reads the peak resident set size of process pid ("self" for this
// one) from /proc, in MiB.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// allocatedBytes is the process's cumulative heap allocation; the difference
// across a call is what the call allocated (plus anything running beside it).
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const mib = 1 << 20
