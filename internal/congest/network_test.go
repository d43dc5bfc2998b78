package congest

import (
	"testing"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// This file holds a message-level Congest runtime and its tests: where
// congest.go *estimates* round counts from list sizes (the standard
// analysis), the MessageNetwork actually delivers one (node, distance) pair
// per edge per round and counts rounds until global quiescence. It validates
// the estimates and the claim behind them — that LE lists, being O(log n)
// long, cost O(log n) rounds per MBF-like iteration. It keeps node keys and
// the node-keyed Order.Filter, so it is a reference independent of the
// rank-keyed frt.LERunner that Khan and Skeleton run.
//
// The protocol is the flooding form of Khan et al. [26]: every node keeps
// its current (filtered) LE list; whenever an entry of the list improves,
// the node enqueues that entry on every incident edge; each round one
// queued entry crosses each edge in each direction; receivers relax the
// entry by the edge weight, re-filter, and enqueue improvements in turn.
// Min-plus relaxations are monotone, so the network quiesces in the unique
// least fixpoint: the exact LE lists of G (the same argument that lets
// Corollary 2.17 drop dominated entries applies — a dominated entry's
// dominator is itself propagated).
type MessageNetwork struct {
	g     *graph.Graph
	order *frt.Order
	// filter is order's LE filter, built once: integrate runs per delivered
	// message, and the closure construction (which captures the order's rank
	// table) is far from free at that frequency.
	filter semiring.Filter[semiring.DistMap]
	// state[v] is v's current LE list.
	state []semiring.DistMap
	// outbox[v][i] queues entries for the i-th incident edge of v.
	outbox [][][]semiring.Entry
	// Rounds and Messages count the simulation's cost.
	Rounds   int
	Messages int
}

// NewMessageNetwork initialises the protocol: every node knows itself at
// distance 0 and announces that entry.
func NewMessageNetwork(g *graph.Graph, order *frt.Order) *MessageNetwork {
	n := g.N()
	net := &MessageNetwork{
		g:      g,
		order:  order,
		filter: order.Filter(),
		state:  make([]semiring.DistMap, n),
		outbox: make([][][]semiring.Entry, n),
	}
	for v := 0; v < n; v++ {
		self := semiring.Entry{Node: graph.Node(v), Dist: 0}
		net.state[v] = semiring.FromEntries(self)
		net.outbox[v] = make([][]semiring.Entry, g.Degree(graph.Node(v)))
		for i := range net.outbox[v] {
			net.outbox[v][i] = []semiring.Entry{self}
		}
	}
	return net
}

// integrate merges the relaxed entry into v's list; improvements are
// re-announced on all of v's edges.
func (net *MessageNetwork) integrate(v graph.Node, e semiring.Entry) {
	merged := (semiring.DistMapModule{}).Add(net.state[v], semiring.SingletonDist(e.Node, e.Dist))
	next := net.filter(merged)
	// Announce entries that are new or improved relative to the old list.
	old := net.state[v]
	net.state[v] = next
	for i := 0; i < next.Len(); i++ {
		ne := next.Entry(i)
		if old.Get(ne.Node) > ne.Dist {
			for i := range net.outbox[v] {
				net.outbox[v][i] = append(net.outbox[v][i], ne)
			}
		}
	}
}

// Step delivers one queued entry per edge direction and returns whether any
// message was sent.
func (net *MessageNetwork) Step() bool {
	type delivery struct {
		to graph.Node
		e  semiring.Entry
	}
	var deliveries []delivery
	for v := 0; v < net.g.N(); v++ {
		for i, a := range net.g.Neighbors(graph.Node(v)) {
			q := net.outbox[v][i]
			if len(q) == 0 {
				continue
			}
			e := q[0]
			net.outbox[v][i] = q[1:]
			// Relax over the edge during transit.
			deliveries = append(deliveries, delivery{
				to: a.To,
				e:  semiring.Entry{Node: e.Node, Dist: e.Dist + a.Weight},
			})
			net.Messages++
		}
	}
	if len(deliveries) == 0 {
		return false
	}
	net.Rounds++
	for _, d := range deliveries {
		net.integrate(d.to, d.e)
	}
	return true
}

// Run drives the network to quiescence (bounded by maxRounds) and returns
// the final LE lists.
func (net *MessageNetwork) Run(maxRounds int) []semiring.DistMap {
	for r := 0; r < maxRounds; r++ {
		if !net.Step() {
			break
		}
	}
	return net.state
}

// Quiescent reports whether all outboxes are empty.
func (net *MessageNetwork) Quiescent() bool {
	for _, boxes := range net.outbox {
		for _, q := range boxes {
			if len(q) > 0 {
				return false
			}
		}
	}
	return true
}

// MaxQueueLength returns the longest outbox, a congestion indicator.
func (net *MessageNetwork) MaxQueueLength() int {
	max := 0
	for _, boxes := range net.outbox {
		for _, q := range boxes {
			if len(q) > max {
				max = len(q)
			}
		}
	}
	return max
}

// MessageKhan runs the message-level protocol to quiescence and returns the
// LE lists with the actual round count.
func MessageKhan(g *graph.Graph, order *frt.Order) ([]semiring.DistMap, int) {
	net := NewMessageNetwork(g, order)
	// SPD ≤ n−1 iterations, each costing O(list length) rounds; n·n is a
	// safe ceiling that the tests assert is never approached.
	lists := net.Run(g.N() * g.N())
	sorted := make([]semiring.DistMap, len(lists))
	for v, l := range lists {
		sorted[v] = semiring.Normalize(l)
	}
	return sorted, net.Rounds
}

func TestMessageKhanMatchesExactLE(t *testing.T) {
	rng := par.NewRNG(1)
	g := graph.RandomConnected(40, 90, 6, rng)
	order := frt.NewOrder(g.N(), rng)
	lists, rounds := MessageKhan(g, order)
	if rounds <= 0 {
		t.Fatal("no rounds simulated")
	}
	exact := graph.APSPDijkstra(g)
	filter := order.Filter()
	mod := semiring.DistMapModule{}
	for v := 0; v < g.N(); v++ {
		full := semiring.NewDistMap(g.N())
		for w := 0; w < g.N(); w++ {
			full = full.Append(graph.Node(w), exact.At(v, w))
		}
		if want := filter(full); !mod.Equal(lists[v], want) {
			t.Fatalf("node %d: message protocol %v ≠ exact LE %v", v, lists[v], want)
		}
	}
}

func TestMessageKhanAgreesWithIterationVersion(t *testing.T) {
	rng := par.NewRNG(2)
	g := graph.GridGraph(6, 6, 4, rng)
	order := frt.NewOrder(g.N(), rng)
	msgLists, _ := MessageKhan(g, order)

	batch, _ := frt.LEListsOnGraphBatch(g, []*frt.Order{order}, nil)
	iterLists := batch[0]
	mod := semiring.DistMapModule{}
	for v := range msgLists {
		if !mod.Equal(msgLists[v], iterLists[v]) {
			t.Fatalf("node %d: message %v ≠ iteration %v", v, msgLists[v], iterLists[v])
		}
	}
}

func TestMessageNetworkQuiesces(t *testing.T) {
	rng := par.NewRNG(3)
	g := graph.PathGraph(50, 1)
	order := frt.NewOrder(g.N(), rng)
	net := NewMessageNetwork(g, order)
	net.Run(g.N() * g.N())
	if !net.Quiescent() {
		t.Fatal("network did not quiesce")
	}
	// After quiescence, another step must be a no-op.
	if net.Step() {
		t.Fatal("quiescent network sent messages")
	}
}

func TestMessageRoundsTrackEstimate(t *testing.T) {
	// The message-level rounds and the list-size estimate of Khan() must
	// agree in order of magnitude: both are Θ(SPD · list length).
	rng := par.NewRNG(4)
	g := graph.PathGraph(120, 1)
	order := frt.NewOrder(g.N(), rng)
	lists, rounds := MessageKhan(g, order)
	// Information must travel at least as far as the farthest LE entry of
	// any node — on a path that hop distance is |v − w|.
	radius := 0
	for v, l := range lists {
		for _, e := range l.Entries() {
			if d := int(e.Node) - v; d > radius {
				radius = d
			} else if -d > radius {
				radius = -d
			}
		}
	}
	if rounds < radius {
		t.Fatalf("message rounds %d below information radius %d — impossible", rounds, radius)
	}
	estimate := Khan(g, par.NewRNG(4)).Rounds
	if rounds > 20*estimate || estimate > 20*rounds {
		t.Fatalf("message rounds %d and estimate %d differ by more than 20×", rounds, estimate)
	}
}

func TestMessageCongestionBounded(t *testing.T) {
	// Outboxes hold at most O(list length) pending entries: congestion
	// stays logarithmic, which is what makes the O(log n)-rounds-per-
	// iteration accounting honest.
	rng := par.NewRNG(5)
	g := graph.RandomConnected(100, 300, 6, rng)
	order := frt.NewOrder(g.N(), rng)
	net := NewMessageNetwork(g, order)
	worstQueue := 0
	for net.Step() {
		if q := net.MaxQueueLength(); q > worstQueue {
			worstQueue = q
		}
	}
	if worstQueue > 60 {
		t.Fatalf("queue length %d implausibly large for n=100", worstQueue)
	}
}

func TestMessageCountsPositive(t *testing.T) {
	rng := par.NewRNG(6)
	g := graph.CycleGraph(20, 1)
	order := frt.NewOrder(g.N(), rng)
	net := NewMessageNetwork(g, order)
	net.Run(1000)
	if net.Messages <= 0 || net.Rounds <= 0 {
		t.Fatal("counters not tracked")
	}
	if net.Messages < net.Rounds {
		t.Fatal("fewer messages than rounds")
	}
}
