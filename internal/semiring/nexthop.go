package semiring

import (
	"cmp"
	"slices"
)

// This file adds a routing algebra to the toolbox: distance computations
// that also record the first hop of a shortest path, so that MBF-like
// algorithms produce usable routing tables (§7.5 of the paper relies on
// exactly this: "nodes locally store the predecessor of shortest paths just
// like in APSP").
//
// The scalar semiring is min-plus enriched with a "via" node: multiplying
// path segments keeps the first segment's entry hop (left bias), addition
// keeps the shorter segment. The semimodule holds sparse routing entries
// (target, distance, next hop).

// NoVia is the sentinel "no hop recorded": the multiplicative identity
// keeps whatever hop the other operand carries.
const NoVia NodeID = -1

// Hop is a min-plus scalar enriched with the first hop of the path it
// measures.
type Hop struct {
	W   float64
	Via NodeID
}

// HopSemiring is the enriched min-plus semiring.
//
// Addition takes the smaller weight, breaking ties towards the smaller Via
// (making it commutative and associative). Multiplication adds weights and
// keeps the leftmost recorded Via, so that in a product a_{v u1} ⊙ a_{u1 u2}
// ⊙ … the surviving Via is v's first hop u1.
//
// Caveat: the semiring laws hold exactly on the weight component; on *ties*
// the Via component depends on evaluation order (left- vs right-factored
// products can surface different equally short first hops). Every choice is
// a correct next hop — the routing invariant the tests verify — so the
// MBF-like engine, which only needs the semimodule operations below, is
// unaffected. This is the same phenomenon that forces Mohri's framework to
// assume a processing order for its tie-sensitive semirings (§1.1 of the
// paper, discussion item (4)).
type HopSemiring struct{}

// Add returns the lighter scalar (ties: smaller Via).
func (HopSemiring) Add(a, b Hop) Hop {
	if a.W < b.W {
		return a
	}
	if b.W < a.W {
		return b
	}
	if a.Via <= b.Via {
		return a
	}
	return b
}

// Mul adds the weights and keeps the leftmost non-sentinel Via.
func (HopSemiring) Mul(a, b Hop) Hop {
	out := Hop{W: a.W + b.W, Via: a.Via}
	if out.Via == NoVia {
		out.Via = b.Via
	}
	if IsInf(out.W) {
		out.Via = NoVia // the annihilator is unique
	}
	return out
}

// Zero returns the annihilator (∞, NoVia).
func (HopSemiring) Zero() Hop { return Hop{W: Inf, Via: NoVia} }

// One returns the identity (0, NoVia).
func (HopSemiring) One() Hop { return Hop{W: 0, Via: NoVia} }

// Equal reports exact equality.
func (HopSemiring) Equal(a, b Hop) bool { return a == b }

var _ Semiring[Hop] = HopSemiring{}

// Route is one routing-table entry: Target is reachable at distance Dist,
// leaving through neighbor Next (NoVia when Target is the node itself).
type Route struct {
	Target NodeID
	Dist   float64
	Next   NodeID
}

// RouteMap is a sparse routing table, sorted by target.
type RouteMap []Route

// RouteMapModule is the zero-preserving semimodule of routing tables over
// HopSemiring: aggregation keeps the best route per target (ties: smaller
// next hop), propagation over an edge adds the edge weight and stamps the
// edge's Via as the next hop of every entry.
type RouteMapModule struct{}

// Add merges two sorted tables keeping the better route per target.
func (RouteMapModule) Add(x, y RouteMap) RouteMap {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	out := make(RouteMap, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i].Target < y[j].Target:
			out = append(out, x[i])
			i++
		case x[i].Target > y[j].Target:
			out = append(out, y[j])
			j++
		default:
			best := x[i]
			if y[j].Dist < best.Dist || (y[j].Dist == best.Dist && y[j].Next < best.Next) {
				best = y[j]
			}
			out = append(out, best)
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	out = append(out, y[j:]...)
	return out
}

// SMul relaxes every entry over the scalar: weights increase by s.W, and a
// non-sentinel s.Via replaces the next hop (the entry now leaves through
// that edge).
func (RouteMapModule) SMul(s Hop, x RouteMap) RouteMap {
	if IsInf(s.W) || len(x) == 0 {
		return nil
	}
	out := make(RouteMap, len(x))
	for i, r := range x {
		next := s.Via
		if next == NoVia {
			next = r.Next
		}
		out[i] = Route{Target: r.Target, Dist: r.Dist + s.W, Next: next}
	}
	return out
}

// Aggregate implements the Aggregator fast path: one k-way merge of self and
// the propagated neighbor tables — per target the lightest route, ties broken
// towards the smaller next hop exactly as Add does — instead of a fold of
// Add/SMul that materialises one intermediate table per neighbor. SMul is
// applied on the fly: list li's entries are shifted by shifts[li] and
// rerouted through vias[li], where NoVia keeps the entry's own hop (which is
// also how the self list rides the merge unscaled). Terms with an ∞ scalar
// or empty tables are skipped; the result is freshly allocated and never
// aliases an input.
//
// Ties on both Dist and Next mean identical Route values, so the per-target
// minimum is order-independent and the merge equals the left fold exactly —
// the differential test in internal/mbf pins this on random graphs.
func (RouteMapModule) Aggregate(sc *Scratch, self RouteMap, terms []Term[Hop, RouteMap]) RouteMap {
	lists := sc.routes[:0]
	shifts := sc.shifts[:0]
	vias := sc.vias[:0]
	total := 0
	if len(self) > 0 {
		lists = append(lists, self)
		shifts = append(shifts, 0)
		vias = append(vias, NoVia)
		total += len(self)
	}
	for _, t := range terms {
		if IsInf(t.S.W) || len(t.X) == 0 {
			continue // SMul's annihilator: the term contributes nothing
		}
		lists = append(lists, t.X)
		shifts = append(shifts, t.S.W)
		vias = append(vias, t.S.Via)
		total += len(t.X)
	}
	var out RouteMap
	if total > 0 {
		out = make(RouteMap, 0, total)
		mergeSorted(sc, lists, func(r Route) NodeID { return r.Target },
			func(li int32, r Route, first bool) {
				dist := r.Dist + shifts[li]
				next := vias[li]
				if next == NoVia {
					next = r.Next
				}
				if !first {
					if best := &out[len(out)-1]; dist < best.Dist || (dist == best.Dist && next < best.Next) {
						best.Dist, best.Next = dist, next
					}
					return
				}
				out = append(out, Route{Target: r.Target, Dist: dist, Next: next})
			})
	}
	for i := range lists {
		lists[i] = nil
	}
	sc.routes, sc.shifts, sc.vias = lists[:0], shifts[:0], vias[:0]
	if len(out) == 0 {
		return nil
	}
	return out
}

var _ Aggregator[Hop, RouteMap] = RouteMapModule{}

// Zero returns the empty table.
func (RouteMapModule) Zero() RouteMap { return nil }

// Equal reports entry-wise equality.
func (RouteMapModule) Equal(x, y RouteMap) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

var _ Semimodule[Hop, RouteMap] = RouteMapModule{}

// Get returns the route for target, or a zero Route and false. The table is
// sorted by target, so the lookup is a binary search: a path walk through
// tables with one entry per cluster center does O(log |targets|) per hop.
func (x RouteMap) Get(target NodeID) (Route, bool) {
	i, ok := slices.BinarySearchFunc(x, target, func(r Route, t NodeID) int { return cmp.Compare(r.Target, t) })
	if !ok {
		return Route{}, false
	}
	return x[i], true
}
