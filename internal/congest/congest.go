// Package congest simulates the Congest model of distributed computation
// (Peleg [38]) for the tree-embedding algorithms of §8 of Friedrichs &
// Lenzen: synchronous rounds, one O(log n)-bit message per edge per round —
// i.e. one (node, distance) pair per edge per round.
//
// Two LE-list algorithms are provided:
//
//   - Khan et al. (§8.1): iterate the LE-list MBF-like algorithm on G until
//     its fixpoint. Each iteration transmits every node's filtered list to
//     its neighbors, costing max_v |x_v| rounds; the total is
//     O(SPD(G)·log n) w.h.p.
//
//   - Skeleton (§8.2/8.3): sample a skeleton S of ≈ √(n·log n) nodes
//     ordered before everyone else, compute the skeleton graph's distances
//     with hop-limited exploration, sparsify it with a Baswana–Sen spanner,
//     broadcast the spanner (so that LE lists on the skeleton cost no
//     communication), and finish with ℓ local MBF iterations on G with
//     stretched weights. Round complexity Õ(√n + D(G)) — beating Khan et
//     al. whenever SPD(G) ≫ √n, which experiment E9 demonstrates on
//     lollipop graphs.
//
// Both run the library's one LE-list runner, frt.LERunner, on rank-keyed
// lists (see frt's "Key spaces" doc) and convert Result.Lists to node keys
// once, on output. The meter reads only list lengths, which the relabel
// keeps, so the simulated rounds are those of the node-keyed iteration. The
// package's tests keep a message-level runtime (MessageNetwork) that runs
// node-keyed with Order.Filter, an independent check of both the lists and
// the round estimates.
//
// Substitution note: where §8.3 invokes the
// Henzinger et al. Congest hop set [25] to push the skeleton work to
// n^{1/2+o(1)}, this simulator uses the exact hop-limited skeleton distances
// of the [22] variant (§8.2); the measured comparison "skeleton beats
// per-hop iteration when SPD ≫ √n" is the same.
package congest

import (
	"math"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/spanner"
)

// Result reports the outcome of a distributed LE-list computation.
type Result struct {
	// Lists are the computed LE lists (w.r.t. G's metric for Khan, w.r.t.
	// the stretched overlay metric H for Skeleton).
	Lists []semiring.DistMap
	// Order is the random node order used (skeleton-first for Skeleton).
	Order *frt.Order
	// Rounds is the simulated Congest round count.
	Rounds int
	// Iterations is the number of MBF-like iterations on G.
	Iterations int
	// StretchBound bounds dist_list/dist_G: 1 for Khan, 2k−1 for Skeleton.
	StretchBound float64
	// Skeleton is the sampled skeleton node set (Skeleton algorithm only).
	Skeleton []graph.Node
	// Spanner is the broadcast skeleton spanner (Skeleton algorithm only).
	Spanner *graph.Graph
}

// maxListLen returns max_v |x_v|, the per-iteration round cost of
// transmitting all filtered lists.
func maxListLen(x []semiring.DistMap) int {
	max := 1
	for _, l := range x {
		if l.Len() > max {
			max = l.Len()
		}
	}
	return max
}

// Khan runs the algorithm of Khan et al. [26] (§8.1): LE-list MBF-like
// iterations on G until the fixpoint, costing O(SPD(G)·log n) rounds w.h.p.
//
// The simulation is frontier-driven: each step re-aggregates only the nodes
// an LE-list change can reach, and the fixpoint is detected when the
// frontier empties — no full-vector comparison. The loop holds one Stepper
// for its whole run, so the runner's scratch pools and the state vector are
// reused across rounds instead of re-copied per step. The round accounting
// is unchanged: the algorithm as analysed broadcasts every node's filtered
// list each iteration, so every iteration still costs max_v |x_v| rounds;
// sparsity only makes the simulation itself faster.
func Khan(g *graph.Graph, rng *par.RNG) *Result {
	n := g.N()
	order := frt.NewOrder(n, rng)
	rk := order.MustKeys(n)

	st := frt.LERunner(g, 1, nil).NewStepper(semiring.SingletonStatesKeyed(rk.Key))
	defer st.Release()
	rounds := 0
	for !st.Done() {
		rounds += maxListLen(st.States())
		st.Step()
		if st.Steps() > n {
			break
		}
	}
	return &Result{Lists: rk.NodeKeyed(st.States()), Order: order, Rounds: rounds, Iterations: st.Steps(), StretchBound: 1}
}

// SkeletonOptions configures Skeleton.
type SkeletonOptions struct {
	// Ell is the hop-exploration radius ℓ; 0 selects ⌈√(n·ln n)⌉.
	Ell int
	// C is the skeleton oversampling factor (sampling probability
	// C·ln n/ℓ); 0 selects 2.
	C float64
	// SpannerK is the Baswana–Sen parameter for sparsifying the skeleton
	// graph; 0 selects 2 (a 3-spanner).
	SpannerK int
}

// Skeleton runs the skeleton-based distributed FRT algorithm in the style
// of §8.2/8.3. The returned LE lists are w.r.t. the overlay metric H, which
// embeds G with stretch at most StretchBound = 2k−1.
func Skeleton(g *graph.Graph, rng *par.RNG, opts SkeletonOptions) *Result {
	n := g.N()
	ell := opts.Ell
	if ell <= 0 {
		ell = int(math.Ceil(math.Sqrt(float64(n) * math.Log(float64(n)+2))))
	}
	c := opts.C
	if c <= 0 {
		c = 2
	}
	k := opts.SpannerK
	if k <= 0 {
		k = 2
	}
	alpha := float64(2*k - 1)

	rounds := 0
	diameter := graph.HopDiameter(g)
	rounds += diameter // BFS-tree setup, β and ID-threshold broadcasts.

	// Sample the skeleton S.
	p := c * math.Log(float64(n)+1) / float64(ell)
	if p > 1 {
		p = 1
	}
	var skeleton []graph.Node
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			skeleton = append(skeleton, graph.Node(v))
		}
	}
	if len(skeleton) == 0 {
		skeleton = append(skeleton, graph.Node(rng.Intn(n)))
	}

	// Skeleton-first random order (Lemma 4.9 of [22] justifies coupling the
	// order to S).
	order := NewSkeletonFirstOrder(n, skeleton, rng)
	rk := order.MustKeys(n)

	// ℓ-hop-limited skeleton distances ((S, ℓ, |S|)-detection in the real
	// algorithm, [31]); pipelined round cost ℓ + |S|.
	skelB := graph.NewBuilder(n)
	hop := make([][]float64, len(skeleton))
	par.ForEach(len(skeleton), func(i int) {
		hop[i] = graph.BellmanFord(g, skeleton[i], ell)
	})
	for i, s := range skeleton {
		for j := i + 1; j < len(skeleton); j++ {
			t := skeleton[j]
			if d := hop[i][t]; !semiring.IsInf(d) && d > 0 {
				skelB.Add(s, t, d)
			}
		}
	}
	skel := skelB.Freeze()
	rounds += ell + len(skeleton)

	// Sparsify the skeleton graph and broadcast the spanner: every node
	// learns E'_S, pipelined over the BFS tree. (skel lives on the full
	// node set with non-skeleton nodes isolated; Baswana–Sen treats them as
	// singleton clusters.)
	sp := spanner.Build(skel, k, rng, nil)
	rounds += sp.M() + diameter

	// Locally (zero rounds): LE lists of the spanner overlay restricted to
	// skeleton sources, x̄ = r^V A^{|S|}_{G'_S} x(0), via the sparse
	// frontier engine. Every node seeds the frontier (each knows itself at
	// distance 0), but non-skeleton nodes are isolated in the spanner, so
	// they fall out after the first step and the remaining iterations run
	// on skeleton-sized frontiers.
	xbar, _ := frt.LERunner(sp, 1, nil).RunToFixpoint(semiring.SingletonStatesKeyed(rk.Key), len(skeleton)+1)

	// Final phase: ℓ LE iterations on G with weights stretched by α,
	// starting from x̄ (Equation 8.9 / 8.20). One Stepper carries the whole
	// phase: each iteration is an in-place sparse step reusing the runner's
	// scratch, and once the fixpoint lands further steps are no-ops — but the
	// round meter still charges all ℓ broadcasts, as the analysed algorithm
	// does not detect convergence.
	st := frt.LERunner(g, alpha, nil).NewStepper(xbar)
	defer st.Release()
	for i := 0; i < ell; i++ {
		rounds += maxListLen(st.States())
		st.Step()
	}
	return &Result{
		Lists: rk.NodeKeyed(st.States()), Order: order, Rounds: rounds, Iterations: ell,
		StretchBound: alpha, Skeleton: skeleton, Spanner: sp,
	}
}

// ExplicitOverlay materialises the overlay graph H of the skeleton
// algorithm (Equations 8.16–8.18): spanner edges at skeleton weights plus G
// edges stretched by α. It is used by tests to validate the distributed
// computation against a direct one.
func ExplicitOverlay(g, spanner *graph.Graph, alpha float64) *graph.Graph {
	h := graph.NewBuilder(g.N())
	for _, e := range spanner.Edges() {
		h.Add(e.U, e.V, e.Weight)
	}
	for _, e := range g.Edges() {
		h.Add(e.U, e.V, alpha*e.Weight) // Freeze keeps the lighter copy
	}
	return h.Freeze()
}

// NewSkeletonFirstOrder draws a random order in which every skeleton node
// precedes every non-skeleton node (§8.2: "we extend the permutations to a
// permutation of V by ruling that for all s ∈ S and v ∈ V∖S we have
// s < v").
func NewSkeletonFirstOrder(n int, skeleton []graph.Node, rng *par.RNG) *frt.Order {
	isSkel := make([]bool, n)
	for _, s := range skeleton {
		isSkel[s] = true
	}
	var skel, rest []graph.Node
	for v := 0; v < n; v++ {
		if isSkel[v] {
			skel = append(skel, graph.Node(v))
		} else {
			rest = append(rest, graph.Node(v))
		}
	}
	shuffle := func(vs []graph.Node) {
		for i := len(vs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			vs[i], vs[j] = vs[j], vs[i]
		}
	}
	shuffle(skel)
	shuffle(rest)
	rank := make([]uint64, n)
	pos := uint64(0)
	for _, v := range append(skel, rest...) {
		rank[v] = pos
		pos++
	}
	return &frt.Order{Rank: rank}
}

// BestOfBoth runs Khan and Skeleton and returns the one with fewer rounds,
// realising the min{·,·} bound of Theorem 8.1.
func BestOfBoth(g *graph.Graph, rng *par.RNG) *Result {
	khan := Khan(g, rng.Split())
	skel := Skeleton(g, rng.Split(), SkeletonOptions{})
	if khan.Rounds <= skel.Rounds {
		return khan
	}
	return skel
}
