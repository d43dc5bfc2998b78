// Package frt implements metric tree embeddings in the style of
// Fakcharoenphol, Rao, and Talwar (FRT) as described in §7 of Friedrichs &
// Lenzen: Least-Element (LE) lists are computed by an MBF-like algorithm —
// either directly on a graph (the Khan et al. baseline, §8.1) or through the
// §5 oracle on the simulated graph H — and an FRT tree is assembled from
// them (Lemma 7.2). The three input models of the paper differ only in how
// the lists are computed — the oracle on H (Embedder, Sample), directly on G
// (SampleOnGraph), or from an explicit metric in the style of Blelloch et
// al. [10] (SampleExact, the work-crossover baseline).
//
// # Key spaces
//
// LE lists live in two key spaces. The public list API is node-keyed:
// InitialStates, Order.Filter, BuildTree and LEListsOnGraphBatch take and
// return DistMaps whose entry for source w is stored under w. Everything
// the package computes itself — the samplers, LEListsOnGraphBatch's
// fixpoints and DynamicEnsemble — is rank-keyed instead: the entry for w is
// stored under Rank[w]. The relabel is exact, because the semimodule
// operations and the merge kernels only compare keys, and it pays twice. First, key order becomes rank order, so the LE
// filter is the linear semiring.Staircase scan with no sort — linear enough
// to run inside the merge: every rank-keyed fixpoint (the Embedder's
// oracle through simgraph.StaircaseFixpoint, leRunner's direct lists and
// repairs) aggregates through semiring.StaircaseModule, which merges and
// filters in one pass and drops a dominated entry as soon as it reads it.
// Second, a rank-keyed LE list is distance-descending, which is the order
// the tree construction reads (buildTreeRanked). The samplers go from
// rank-keyed lists straight to the tree; only LEListsOnGraphBatch converts
// its lists to node keys, once, on output. The node-keyed Order.Filter is
// the same Staircase scan between two relabels, to rank keys and back.
package frt

import (
	"fmt"

	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Order is the uniformly random total order on the nodes used by the FRT
// construction (§7.1 step 2): Rank[v] is v's position in a random
// permutation, so ranks are distinct and "v < w" in the paper's notation
// means Rank[v] < Rank[w]. The tree construction and the LE fixpoints
// require Rank to be a permutation of 0..n−1, as NewOrder draws it.
type Order struct {
	Rank []uint64
}

// NewOrder draws a uniformly random total order on n nodes.
func NewOrder(n int, rng *par.RNG) *Order {
	rank := make([]uint64, n)
	for pos, v := range rng.Perm(n) {
		rank[v] = uint64(pos)
	}
	return &Order{Rank: rank}
}

// rankKeys is the rank-keyed view of an Order: key[v] is Rank[v] as a
// DistMap key, and node[k] is the node of rank k.
type rankKeys struct {
	key, node []graph.Node
}

// keys returns o's rank-keyed view on n nodes. It fails unless Rank is a
// permutation of 0..n−1.
func (o *Order) keys(n int) (rankKeys, error) {
	if len(o.Rank) != n {
		return rankKeys{}, fmt.Errorf("frt: order has %d ranks for %d nodes", len(o.Rank), n)
	}
	rk := rankKeys{key: make([]graph.Node, n), node: make([]graph.Node, n)}
	for k := range rk.node {
		rk.node[k] = -1
	}
	for v, r := range o.Rank {
		if r >= uint64(n) || rk.node[r] != -1 {
			return rankKeys{}, fmt.Errorf("frt: order ranks are not a permutation of 0..%d", n-1)
		}
		rk.key[v], rk.node[r] = graph.Node(r), graph.Node(v)
	}
	return rk, nil
}

// mustKeys is keys for callers whose API has no error return; a bad order
// there is a programming error.
func (o *Order) mustKeys(n int) rankKeys {
	rk, err := o.keys(n)
	if err != nil {
		panic(err)
	}
	return rk
}

// nodeKeyed converts one tree's rank-keyed lists to node keys.
func (rk rankKeys) nodeKeyed(lists []semiring.DistMap) []semiring.DistMap {
	out := make([]semiring.DistMap, len(lists))
	par.ForEach(len(lists), func(v int) { out[v] = lists[v].Relabel(rk.node) })
	return out
}

// Filter returns the LE-list representative projection r of Definition 7.3
// on node-keyed lists: an entry (w, x_w) survives iff no other entry
// (u, x_u) has Rank[u] < Rank[w] and x_u ≤ x_w. Lemma 7.5 shows r is a
// representative projection of a congruence relation on D, which is what
// entitles the oracle to apply it after every intermediate iteration.
//
// The surviving entries, read in order of increasing rank, have strictly
// decreasing distances; their count is O(log n) w.h.p. for any input that
// does not depend on the random order (Lemma 7.6). On rank-keyed lists the
// same projection is semiring.Staircase, and Filter is exactly that scan
// conjugated by the relabel: to rank keys, Staircase, back to node keys. Like
// every filter it is pure (x itself when every entry survives, a fresh map
// otherwise). Rank must be a permutation of 0..n−1.
func (o *Order) Filter() semiring.Filter[semiring.DistMap] {
	rk := o.mustKeys(len(o.Rank))
	return func(x semiring.DistMap) semiring.DistMap {
		kept := semiring.Staircase(x.Relabel(rk.key))
		if kept.Len() == x.Len() {
			return x
		}
		return kept.Relabel(rk.node)
	}
}

// FilterInPlace returns Filter().
//
// Deprecated: every filter is pure now, so there is no in-place variant;
// use Filter.
func (o *Order) FilterInPlace() semiring.Filter[semiring.DistMap] { return o.Filter() }

// InitialStates returns the LE-list initialisation x(0) of Definition 7.3:
// every node knows itself at distance 0, node-keyed. The singletons share
// one bulk backing allocation (see semiring.SingletonStates) — at large n
// per-node pair allocations dominated initialisation time and heap count.
// The package's rank-keyed fixpoints start from the same shape under rank
// keys (semiring.SingletonStatesKeyed).
func InitialStates(n int) []semiring.DistMap {
	return semiring.SingletonStates(n)
}

// LEListsOnGraphBatch computes the LE lists of a graph directly, under B
// independent random orders — the B tree samples of an FRT ensemble — by
// iterating the MBF-like algorithm of Definition 7.3 on G until the
// fixpoint: the parallel form of the Khan et al. algorithm (§8.1). It takes
// O(SPD(G)) iterations per order and is the baseline that the oracle-based
// computation on H beats when SPD(G) is large. iters[b] is the number of
// sparse iterations of order b, including the final one that confirms the
// fixpoint (see mbf.Runner.RunToFixpoint). The fixpoints run on rank-keyed
// lists (see the package doc) and convert them to node keys once, on
// output; every order's ranks must be a permutation of 0..n−1.
func LEListsOnGraphBatch(g *graph.Graph, orders []*Order, tracker *par.Tracker) ([][]semiring.DistMap, []int) {
	keys := make([]rankKeys, len(orders))
	for b, order := range orders {
		keys[b] = order.mustKeys(g.N())
	}
	lists, iters := leListsRanked(g, keys, tracker)
	for b, rk := range keys {
		lists[b] = rk.nodeKeyed(lists[b])
	}
	return lists, iters
}

// leListsRanked is LEListsOnGraphBatch on rank-keyed lists: one leRunner
// fixpoint per order, from rank singletons. The orders are independent
// parallel work in the cost model of §1.2, so each charges a private tracker
// and the caller's tracker is charged their summed work and maximum depth.
func leListsRanked(g *graph.Graph, keys []rankKeys, tracker *par.Tracker) ([][]semiring.DistMap, []int) {
	lists := make([][]semiring.DistMap, len(keys))
	iters := make([]int, len(keys))
	var work, depth int64
	for b, rk := range keys {
		var tk *par.Tracker
		if tracker != nil {
			tk = &par.Tracker{}
		}
		lists[b], iters[b] = leRunner(g, tk).RunToFixpoint(semiring.SingletonStatesKeyed(rk.key), g.N())
		work += tk.Work()
		depth = max(depth, tk.Depth())
	}
	tracker.AddPhase(work, depth)
	return lists, iters
}

// leRunner builds the rank-keyed LE-list runner of Definition 7.3 on g, the
// one configuration shared by the LE fixpoints and their repairs. Its
// module fuses the Staircase filter into every aggregation.
func leRunner(g *graph.Graph, tracker *par.Tracker) *mbf.Runner[float64, semiring.DistMap] {
	return &mbf.Runner[float64, semiring.DistMap]{
		Graph:   g,
		Module:  semiring.StaircaseModule{},
		Filter:  semiring.Staircase,
		Weight:  mbf.MinPlusWeight,
		Size:    func(m semiring.DistMap) int { return m.Len() + 1 },
		Tracker: tracker,
	}
}
