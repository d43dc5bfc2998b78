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
// return DistMaps whose entry for source w is stored under w. Every LE
// fixpoint in the library is rank-keyed instead: the entry for w is stored
// under Rank[w] (the Order's RankKeys view). That covers the samplers,
// LEListsOnGraphBatch, DynamicEnsemble and the Congest simulations of
// package congest. The relabel is exact, because the semimodule operations
// and the merge kernels only compare keys, and it pays twice. First, key
// order becomes rank order, so the LE filter is the linear
// semiring.Staircase scan with no sort — linear enough to run inside the
// merge: every LE fixpoint (the Embedder's oracle through
// simgraph.StaircaseFixpoint, and LERunner's direct lists, repairs and
// Congest rounds) aggregates through semiring.StaircaseModule, which merges
// and filters in one pass and drops a dominated entry as soon as it reads
// it. Second, a rank-keyed LE list is distance-descending, which is the
// order the tree construction reads (buildTreeRanked). The samplers go from
// rank-keyed lists straight to the tree; LEListsOnGraphBatch and the
// Congest simulations convert their lists to node keys once, on output
// (RankKeys.NodeKeyed). The node-keyed Order.Filter is the same Staircase
// scan between two relabels, to rank keys and back; no library path runs
// it, it is the reference the rank-keyed runs are tested against.
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

// RankKeys is the rank-keyed view of an Order: Key[v] is Rank[v] as a
// DistMap key, and Node[k] is the node of rank k.
type RankKeys struct {
	Key, Node []graph.Node
}

// keys returns o's rank-keyed view on n nodes. It fails unless Rank is a
// permutation of 0..n−1.
func (o *Order) keys(n int) (RankKeys, error) {
	if len(o.Rank) != n {
		return RankKeys{}, fmt.Errorf("frt: order has %d ranks for %d nodes", len(o.Rank), n)
	}
	rk := RankKeys{Key: make([]graph.Node, n), Node: make([]graph.Node, n)}
	for k := range rk.Node {
		rk.Node[k] = -1
	}
	for v, r := range o.Rank {
		if r >= uint64(n) || rk.Node[r] != -1 {
			return RankKeys{}, fmt.Errorf("frt: order ranks are not a permutation of 0..%d", n-1)
		}
		rk.Key[v], rk.Node[r] = graph.Node(r), graph.Node(v)
	}
	return rk, nil
}

// MustKeys is keys for callers whose API has no error return; a bad order
// there is a programming error.
func (o *Order) MustKeys(n int) RankKeys {
	rk, err := o.keys(n)
	if err != nil {
		panic(err)
	}
	return rk
}

// NodeKeyed converts one order's rank-keyed lists to node keys.
func (rk RankKeys) NodeKeyed(lists []semiring.DistMap) []semiring.DistMap {
	out := make([]semiring.DistMap, len(lists))
	par.ForEach(len(lists), func(v int) { out[v] = lists[v].Relabel(rk.Node) })
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
	rk := o.MustKeys(len(o.Rank))
	return func(x semiring.DistMap) semiring.DistMap {
		kept := semiring.Staircase(x.Relabel(rk.Key))
		if kept.Len() == x.Len() {
			return x
		}
		return kept.Relabel(rk.Node)
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
	keys := make([]RankKeys, len(orders))
	for b, order := range orders {
		keys[b] = order.MustKeys(g.N())
	}
	lists, iters := leListsRanked(g, keys, tracker)
	for b, rk := range keys {
		lists[b] = rk.NodeKeyed(lists[b])
	}
	return lists, iters
}

// leListsRanked is LEListsOnGraphBatch on rank-keyed lists: one LERunner
// fixpoint per order, from rank singletons. The orders are independent
// parallel work in the cost model of §1.2, so each charges a private tracker
// and the caller's tracker is charged their summed work and maximum depth.
func leListsRanked(g *graph.Graph, keys []RankKeys, tracker *par.Tracker) ([][]semiring.DistMap, []int) {
	lists := make([][]semiring.DistMap, len(keys))
	iters := make([]int, len(keys))
	trackers, join := tracker.Fork(len(keys))
	for b, rk := range keys {
		lists[b], iters[b] = LERunner(g, 1, trackers[b]).RunToFixpoint(semiring.SingletonStatesKeyed(rk.Key), g.N())
	}
	join()
	return lists, iters
}

// LERunner builds the rank-keyed LE-list runner of Definition 7.3 on g with
// every edge weight scaled by alpha: the one LE configuration of the
// library, shared by the direct lists, their repairs and the Congest
// simulations (alpha = 1 everywhere except the skeleton algorithm's
// stretched final phase). Its module fuses the Staircase filter into every
// aggregation, so its states must be rank-keyed: start it from
// semiring.SingletonStatesKeyed(rk.Key) and convert the result with
// rk.NodeKeyed.
func LERunner(g *graph.Graph, alpha float64, tracker *par.Tracker) *mbf.Runner[float64, semiring.DistMap] {
	weight := mbf.MinPlusWeight
	if alpha != 1 {
		weight = func(_, _ graph.Node, w float64) float64 { return alpha * w }
	}
	return &mbf.Runner[float64, semiring.DistMap]{
		Graph:   g,
		Module:  semiring.StaircaseModule{},
		Filter:  semiring.Staircase,
		Weight:  weight,
		Size:    func(m semiring.DistMap) int { return m.Len() + 1 },
		Tracker: tracker,
	}
}
