package graph

import (
	"fmt"
	"math"
	"sort"

	"parmbf/internal/par"
)

// This file provides the workload generators of the experiment suite. All
// generators take an explicit RNG so every experiment is reproducible from a
// seed, and all of them produce connected graphs with positive weights and a
// polynomially bounded weight ratio (the standing assumptions of §1.2).
// Generators accumulate edges in a Builder (O(1) per edge) and Freeze once;
// generators that must not re-sample existing edges track the edge set in
// an edgeSet (bitset or hash set), so dense construction stays O(n + m)
// instead of the quadratic O(m·deg) of the old per-insert adjacency scan.

// quantize rounds w to a multiple of 1/1024. Dyadic-rational weights make
// every path-weight sum exact in float64 (no rounding error accumulates), so
// exact distances form an exact metric and tie-breaking in tests is
// deterministic. The weight-ratio assumption of §1.2 is unaffected.
func quantize(w float64) float64 {
	q := math.Round(w*1024) / 1024
	if q <= 0 {
		q = 1.0 / 1024
	}
	return q
}

// edgeSet answers "have I already generated edge {u,v}?" in O(1) for the
// generators whose RNG retry loops must skip existing edges. For moderate n
// it is a dense triangular bitset (one cache line touch per query); beyond
// that it falls back to a hash set keyed by the canonical pair.
type edgeSet struct {
	n    int
	bits []uint64
	m    map[uint64]bool
}

func newEdgeSet(n, sizeHint int) *edgeSet {
	// Use the dense bitset only while its footprint is small in absolute
	// terms or proportionate to the expected edge count (≤ 64 bytes per
	// edge); for sparse edge sets on large node counts the hash set wins.
	words := (n*(n-1)/2 + 63) / 64
	if bytes := 8 * words; bytes <= 1<<16 || bytes <= 64*sizeHint {
		return &edgeSet{n: n, bits: make([]uint64, words)}
	}
	return &edgeSet{n: n, m: make(map[uint64]bool, sizeHint)}
}

// key maps the unordered pair {u, v} to its index in the strict upper
// triangle (row-major), or to a canonical hash key in map mode.
func (s *edgeSet) key(u, v Node) uint64 {
	if u > v {
		u, v = v, u
	}
	if s.bits != nil {
		uu, nn := uint64(uint32(u)), uint64(s.n)
		return uu*nn - uu*(uu+1)/2 + uint64(uint32(v)) - uu - 1
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func (s *edgeSet) has(u, v Node) bool {
	k := s.key(u, v)
	if s.bits != nil {
		return s.bits[k>>6]&(1<<(k&63)) != 0
	}
	return s.m[k]
}

func (s *edgeSet) add(u, v Node) {
	k := s.key(u, v)
	if s.bits != nil {
		s.bits[k>>6] |= 1 << (k & 63)
		return
	}
	s.m[k] = true
}

// PathGraph returns the n-node path v0—v1—…—v_{n-1} with the given uniform
// edge weight. Its SPD is n−1: the worst case for plain MBF iteration and
// the motivating example for the simulated graph H of §4.
func PathGraph(n int, weight float64) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.Add(Node(v), Node(v+1), weight)
	}
	return b.Freeze()
}

// CycleGraph returns the n-node cycle with unit weights, the paper's example
// of a graph that no deterministic tree embedding can handle with stretch
// o(n) but random embeddings handle with expected stretch O(log n) (§1.1).
func CycleGraph(n int, weight float64) *Graph {
	if n < 3 {
		panic("graph: cycle needs n ≥ 3")
	}
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.Add(Node(v), Node(v+1), weight)
	}
	b.Add(Node(n-1), 0, weight)
	return b.Freeze()
}

// GridGraph returns the rows×cols grid with weights drawn uniformly from
// [1, maxWeight]. Grids have Θ(√n) SPD and model road-like networks.
func GridGraph(rows, cols int, maxWeight float64, rng *par.RNG) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) Node { return Node(r*cols + c) }
	w := func() float64 { return quantize(1 + rng.Float64()*(maxWeight-1)) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.Add(id(r, c), id(r, c+1), w())
			}
			if r+1 < rows {
				b.Add(id(r, c), id(r+1, c), w())
			}
		}
	}
	return b.Freeze()
}

// RandomConnected returns a connected graph with n nodes and m edges: a
// random spanning tree plus m−(n−1) random extra edges, weights uniform in
// [1, maxWeight]. It panics if m < n−1 or m exceeds the simple-graph bound.
func RandomConnected(n, m int, maxWeight float64, rng *par.RNG) *Graph {
	if m < n-1 {
		panic(fmt.Sprintf("graph: m=%d below spanning tree size %d", m, n-1))
	}
	if maxM := n * (n - 1) / 2; m > maxM {
		panic(fmt.Sprintf("graph: m=%d exceeds simple bound %d", m, maxM))
	}
	b := NewBuilder(n)
	seen := newEdgeSet(n, m)
	w := func() float64 { return quantize(1 + rng.Float64()*(maxWeight-1)) }
	// Random spanning tree: attach each node (in random order) to a random
	// earlier node, which yields a uniform-ish random recursive tree.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		u, v := Node(perm[i]), Node(perm[j])
		seen.add(u, v)
		b.Add(u, v, w())
	}
	for count := n - 1; count < m; {
		u := Node(rng.Intn(n))
		v := Node(rng.Intn(n))
		if u == v {
			continue
		}
		if seen.has(u, v) {
			continue
		}
		seen.add(u, v)
		b.Add(u, v, w())
		count++
	}
	return b.Freeze()
}

// Lollipop returns a lollipop graph: a clique on cliqueN nodes joined to a
// path of pathN nodes by a single edge, all unit weights. Its SPD is
// Θ(pathN) while its size stays Θ(cliqueN² + pathN) — the adversarial
// workload of experiment E9 where SPD ≫ √n makes plain per-hop algorithms
// slow.
func Lollipop(cliqueN, pathN int) *Graph {
	n := cliqueN + pathN
	b := NewBuilder(n)
	for u := 0; u < cliqueN; u++ {
		for v := u + 1; v < cliqueN; v++ {
			b.Add(Node(u), Node(v), 1)
		}
	}
	for v := cliqueN; v < n; v++ {
		b.Add(Node(v-1), Node(v), 1)
	}
	return b.Freeze()
}

// Clustered returns a graph of k well-separated clusters: each cluster is a
// random connected subgraph with intra-cluster weights in [1, 2], and
// clusters are joined into a connected whole by bridges of weight sep ≫ 2.
// It is the planted workload for the k-median experiment E11, where the
// optimal centers are one per cluster.
func Clustered(k, perCluster int, sep float64, rng *par.RNG) *Graph {
	n := k * perCluster
	b := NewBuilder(n)
	seen := newEdgeSet(n, n*2)
	for c := 0; c < k; c++ {
		base := c * perCluster
		// Spanning tree plus a few chords inside the cluster.
		for i := 1; i < perCluster; i++ {
			j := rng.Intn(i)
			u, v := Node(base+i), Node(base+j)
			seen.add(u, v)
			b.Add(u, v, quantize(1+rng.Float64()))
		}
		extra := perCluster / 2
		for e := 0; e < extra; e++ {
			u := Node(base + rng.Intn(perCluster))
			v := Node(base + rng.Intn(perCluster))
			if u == v {
				continue
			}
			if !seen.has(u, v) {
				seen.add(u, v)
				b.Add(u, v, quantize(1+rng.Float64()))
			}
		}
	}
	// Bridge consecutive clusters.
	for c := 0; c+1 < k; c++ {
		u := Node(c*perCluster + rng.Intn(perCluster))
		v := Node((c+1)*perCluster + rng.Intn(perCluster))
		b.Add(u, v, sep)
	}
	return b.Freeze()
}

// RandomGeometric returns a connected random geometric graph: n points
// uniform in the unit square, edges between pairs within distance radius
// with Euclidean weights (scaled by 1000 so the minimum weight stays well
// above 0), plus spanning-tree edges if the radius graph is disconnected.
func RandomGeometric(n int, radius float64, rng *par.RNG) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist := func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return quantize(math.Sqrt(dx*dx+dy*dy)*1000 + 1)
	}
	b := NewBuilder(n)
	// Track connectivity incrementally so the repair loop below does not
	// have to re-scan a frozen graph after every added bridge.
	uf := NewUnionFind(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if math.Sqrt(dx*dx+dy*dy) <= radius {
				b.Add(Node(i), Node(j), dist(i, j))
				uf.Union(int32(i), int32(j))
			}
		}
	}
	// Guarantee connectivity: link each connected component to node 0's
	// component through the geometrically nearest pair.
	for {
		root := uf.Find(0)
		target := -1
		for v := 1; v < n; v++ {
			if uf.Find(int32(v)) != root {
				target = v
				break
			}
		}
		if target == -1 {
			break
		}
		best, bu := math.Inf(1), -1
		for v := 0; v < n; v++ {
			if uf.Find(int32(v)) == root {
				if d := dist(v, target); d < best {
					best, bu = d, v
				}
			}
		}
		b.Add(Node(bu), Node(target), best)
		uf.Union(int32(bu), int32(target))
	}
	return b.Freeze()
}

// ChungLu returns a connected power-law random graph in the Chung-Lu
// expected-degree model: node i carries weight wᵢ ∝ (i+1)^(−1/(τ−1)) scaled
// so the mean degree is avgDeg, and edge {i,j} appears with probability
// min(1, wᵢwⱼ/Σw). The realised degree sequence then has a power-law tail
// with exponent ≈ τ — the degree skew that stresses the merge ladder with a
// few huge adjacency rows. Generation is the Miller-Hagberg skip-sampling
// scan: O(n + m) expected, not the naive O(n²) pair loop, so it runs at
// n = 2^20 in seconds. Edge weights are uniform in [1, maxWeight]. Isolated
// components are bridged to node 0 (the heaviest node), so the output is
// connected; the handful of repair edges does not disturb the tail.
func ChungLu(n int, avgDeg, tau, maxWeight float64, rng *par.RNG) *Graph {
	if n < 2 {
		panic("graph: ChungLu needs n ≥ 2")
	}
	if tau <= 2 {
		panic("graph: ChungLu tail exponent must exceed 2 (finite mean)")
	}
	alpha := 1 / (tau - 1)
	wts := make([]float64, n)
	var sum float64
	for i := range wts {
		wts[i] = math.Pow(float64(i+1), -alpha)
		sum += wts[i]
	}
	scale := float64(n) * avgDeg / sum
	sum = 0
	for i := range wts {
		wts[i] *= scale
		sum += wts[i]
	}
	ew := func() float64 { return quantize(1 + rng.Float64()*(maxWeight-1)) }
	b := NewBuilder(n)
	uf := NewUnionFind(n)
	// Miller-Hagberg scan: weights are sorted descending by construction, so
	// for fixed i the edge probability is non-increasing in j and geometric
	// skips under the current bound p stay valid; each candidate is then
	// accepted with the exact ratio q/p.
	for i := 0; i < n-1; i++ {
		j := i + 1
		p := wts[i] * wts[j] / sum
		if p > 1 {
			p = 1
		}
		for j < n && p > 0 {
			if p < 1 {
				r := rng.Float64()
				if r == 0 {
					r = 0.5
				}
				if skip := math.Log(r) / math.Log(1-p); skip >= float64(n-j) {
					break // geometric skip past the end of the row
				} else {
					j += int(skip)
				}
			}
			q := wts[i] * wts[j] / sum
			if q > 1 {
				q = 1
			}
			if rng.Float64() < q/p {
				b.Add(Node(i), Node(j), ew())
				uf.Union(int32(i), int32(j))
			}
			p = q
			j++
		}
	}
	// Connectivity repair: attach every stray component to node 0.
	root := uf.Find(0)
	for v := 1; v < n; v++ {
		if uf.Find(int32(v)) != root {
			uf.Union(0, int32(v))
			b.Add(0, Node(v), ew())
		}
	}
	return b.Freeze()
}

// GridOfCliques returns a rows×cols grid whose cells are cliques of
// cliqueN nodes: intra-clique weights uniform in [1, 2], adjacent cells
// joined by one bridge edge of weight bridgeWeight between their first
// nodes. With bridgeWeight ≫ 2 the graph combines dense local structure
// (clique rows exercise wide merges) with a Θ(rows+cols) shortest-path
// diameter — the road-network-like regime where hop sets pay off. The node
// count is rows·cols·cliqueN and the edge count is exactly
// rows·cols·cliqueN(cliqueN−1)/2 + rows(cols−1) + cols(rows−1).
func GridOfCliques(rows, cols, cliqueN int, bridgeWeight float64, rng *par.RNG) *Graph {
	if rows < 1 || cols < 1 || cliqueN < 1 {
		panic("graph: GridOfCliques needs positive dimensions")
	}
	n := rows * cols * cliqueN
	b := NewBuilder(n)
	base := func(r, c int) int { return (r*cols + c) * cliqueN }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			o := base(r, c)
			for u := 0; u < cliqueN; u++ {
				for v := u + 1; v < cliqueN; v++ {
					b.Add(Node(o+u), Node(o+v), quantize(1+rng.Float64()))
				}
			}
			if c+1 < cols {
				b.Add(Node(o), Node(base(r, c+1)), bridgeWeight)
			}
			if r+1 < rows {
				b.Add(Node(o), Node(base(r+1, c)), bridgeWeight)
			}
		}
	}
	return b.Freeze()
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// small clique, each new node attaches to `attach` existing nodes chosen
// with probability proportional to their degree, with weights uniform in
// [1, maxWeight]. The degree distribution is power-law-ish — the
// heavy-tailed workload of the experiment suite.
func BarabasiAlbert(n, attach int, maxWeight float64, rng *par.RNG) *Graph {
	if attach < 1 {
		attach = 1
	}
	seed := attach + 1
	if seed > n {
		seed = n
	}
	b := NewBuilder(n)
	w := func() float64 { return quantize(1 + rng.Float64()*(maxWeight-1)) }
	// Repeated-endpoints trick: sampling uniformly from the endpoint list
	// is proportional to degree.
	var endpoints []Node
	// Seed clique.
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			b.Add(Node(u), Node(v), w())
			endpoints = append(endpoints, Node(u), Node(v))
		}
	}
	for v := seed; v < n; v++ {
		chosen := map[Node]bool{}
		for len(chosen) < attach {
			t := endpoints[rng.Intn(len(endpoints))]
			if int(t) != v {
				chosen[t] = true
			}
		}
		// Attach in sorted target order so the endpoint list — and with it
		// every later degree-proportional draw — is deterministic.
		targets := make([]Node, 0, len(chosen))
		for t := range chosen {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, t := range targets {
			b.Add(Node(v), t, w())
			endpoints = append(endpoints, Node(v), t)
		}
	}
	return b.Freeze()
}
