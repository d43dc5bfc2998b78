package semiring

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// Entry is one (node, distance) pair of a sparse distance map. It is the
// construction and inspection currency of DistMap; the map itself stores the
// two components in separate arrays (see below).
type Entry struct {
	Node NodeID
	Dist float64
}

// DistMap is an element of the distance-map semimodule D of Definition 2.1:
// a vector in (ℝ≥0 ∪ {∞})^V stored sparsely, sorted by node ID. Absent nodes
// implicitly hold ∞. The zero element ⊥ = (∞, …, ∞)ᵀ is the zero DistMap.
//
// # Keys
//
// The "node ID" of an entry is a key: every operation of the algebra and
// the merge kernel only compares keys, so any injective relabelling of V
// that is applied to a whole fixpoint commutes with it. Public APIs key by
// node ID. The frt package's LE-list fixpoints key each tree's maps by the
// node's rank in that tree's random order instead, which turns the LE
// filter into the linear Staircase scan (see Relabel for converting between
// the two key spaces).
//
// # Representation
//
// The entries are stored as a structure of arrays: a node-ID slice and a
// parallel distance slice of equal length. The k-way merge kernel of
// Lemma 2.3 (distmerge.go) runs over the contiguous int32 IDs and touches
// the float payload only to combine duplicates, which is what makes the
// aggregation fast path branch-light and cache-friendly; Get answers by
// binary search over the ID array alone. Freshly allocated results carry
// both arrays in one pointer-free heap block (see allocPairs), so the split
// layout costs no extra allocations over an interleaved one.
//
// # Sharing and aliasing contract
//
// A DistMap value is a pair of slice headers. Copying the value (assignment,
// passing, returning) shares the underlying arrays — it never copies
// entries. The algebra relies on this: operations never mutate their inputs,
// but they MAY return a value sharing storage with an input when that is
// sound — Add with an empty side returns the other side unchanged, SMul
// shares the input's ID array (only the distances shift, so a fresh distance
// array is paired with the same IDs), and SMul with s == 0 returns x itself.
// Callers must therefore never mutate a DistMap after handing it to (or
// receiving it from) the algebra or the engine.
//
// Code that owns a value exclusively — in practice: the freshly merged
// output of Aggregate, or a Clone — may use the explicitly in-place
// operations, which are the only ones allowed to write to their argument:
// SMulInPlace (rewrites distances), TopKFilterInPlace, StaircaseInPlace,
// Compact, SortFunc, and Order.FilterInPlace in internal/frt (all of which
// reorder or compact both arrays; Order.FilterInPlace is StaircaseInPlace
// between two sorts). Applying them to a value that shares storage with a
// state vector corrupts every alias, including the shared ID array of an
// SMul result. StaircaseModule.Aggregate needs none of them: it reads its
// inputs in place, writes only scratch, and hands its filter a fresh
// result, so no unfiltered intermediate is ever exposed.
type DistMap struct {
	ids []NodeID
	ds  []float64
}

// allocPairs returns empty id/distance slices of capacity n carved from one
// pointer-free allocation: a []float64 block whose first n elements back the
// distances and whose tail is reinterpreted as the node-ID array. Every
// DistMap result then costs one heap object instead of two — on
// wavefront-shaped fixpoints, where states are near-singletons and the engine
// materialises one result per live node per iteration, the allocation count
// (and with it GC mark work) is the dominant layout cost, not bytes.
//
// Safety: float64 alignment (8) covers NodeID alignment (4); the ID slice is
// an interior pointer into the block, which keeps the whole block live; both
// element types are pointer-free, so the garbage collector never scans the
// block. Appends beyond capacity fall back to ordinary slice growth, which
// simply splits the pair onto separate backing arrays again.
func allocPairs(n int) (ids []NodeID, ds []float64) {
	if n <= 0 {
		return nil, nil
	}
	buf := make([]float64, n+(n+1)/2)
	ds = buf[:0:n]
	ids = unsafe.Slice((*NodeID)(unsafe.Pointer(&buf[n])), n)[:0]
	return ids, ds
}

// FromEntries builds a DistMap from entries, which must be strictly sorted
// by node ID (the representation invariant; use Normalize for unsorted
// input). The entries are copied.
func FromEntries(entries ...Entry) DistMap {
	if len(entries) == 0 {
		return DistMap{}
	}
	x := DistMap{ids: make([]NodeID, len(entries)), ds: make([]float64, len(entries))}
	for i, e := range entries {
		x.ids[i] = e.Node
		x.ds[i] = e.Dist
	}
	return x
}

// SingletonDist returns the one-entry map {v: d}.
func SingletonDist(v NodeID, d float64) DistMap {
	return DistMap{ids: []NodeID{v}, ds: []float64{d}}
}

// SingletonStates returns the n-vector (SingletonDist(0,0), …,
// SingletonDist(n−1,0)) — the standard initial state of an
// all-sources fixpoint — with every singleton carved from one shared
// backing allocation instead of n separate two-slice allocations. At
// n = 2^20 that is 3 allocations instead of ~2 million, and the backing
// is 12 bytes per node instead of two size-classed slivers. Sharing is
// safe under the aliasing contract: DistMap values are immutable once
// published, and the engines only apply in-place filters to merge results
// they own, never to inputs.
func SingletonStates(n int) []DistMap { return singletonStates(n, nil) }

// SingletonStatesKeyed is SingletonStates with node v's singleton stored
// under key[v] instead of v — the initial state of a fixpoint whose maps
// are keyed by something other than node ID (the frt package keys its LE
// fixpoints by rank) — in the same single backing allocation.
func SingletonStatesKeyed(key []NodeID) []DistMap { return singletonStates(len(key), key) }

// singletonStates carves n singletons at distance 0 from one allocation,
// keyed by key[v], or by v when key is nil.
func singletonStates(n int, key []NodeID) []DistMap {
	ids, ds := allocPairs(n)
	ids, ds = ids[:n], ds[:n]
	states := make([]DistMap, n)
	for v := 0; v < n; v++ {
		ids[v] = NodeID(v)
		if key != nil {
			ids[v] = key[v]
		}
		// ds is zeroed by allocPairs; each singleton views its own element.
		states[v] = DistMap{ids: ids[v : v+1 : v+1], ds: ds[v : v+1 : v+1]}
	}
	return states
}

// NewDistMap returns an empty map with capacity for n entries, for callers
// that build a map incrementally with Append.
func NewDistMap(n int) DistMap {
	return DistMap{ids: make([]NodeID, 0, n), ds: make([]float64, 0, n)}
}

// Append appends an entry, growing like the built-in append, and returns the
// extended map. Entries must be appended in strictly increasing node order
// to preserve the representation invariant.
func (x DistMap) Append(v NodeID, d float64) DistMap {
	return DistMap{ids: append(x.ids, v), ds: append(x.ds, d)}
}

// Len returns |x|, the number of non-∞ entries.
func (x DistMap) Len() int { return len(x.ids) }

// Node returns the node ID of the i-th entry.
func (x DistMap) Node(i int) NodeID { return x.ids[i] }

// Dist returns the distance of the i-th entry.
func (x DistMap) Dist(i int) float64 { return x.ds[i] }

// Entry returns the i-th entry as a pair.
func (x DistMap) Entry(i int) Entry { return Entry{Node: x.ids[i], Dist: x.ds[i]} }

// Entries returns a fresh entry slice (for tests, IO, and debugging; the hot
// paths use indexed access).
func (x DistMap) Entries() []Entry {
	if len(x.ids) == 0 {
		return nil
	}
	out := make([]Entry, len(x.ids))
	for i := range x.ids {
		out[i] = Entry{Node: x.ids[i], Dist: x.ds[i]}
	}
	return out
}

// Get returns the distance stored for node v, or ∞ if absent.
func (x DistMap) Get(v NodeID) float64 {
	if i, ok := x.Index(v); ok {
		return x.ds[i]
	}
	return Inf
}

// Index returns the position of node v's entry by binary search over the
// ID array, and whether v has one.
func (x DistMap) Index(v NodeID) (int, bool) {
	return slices.BinarySearch(x.ids, v)
}

// Clone returns a deep copy of x, which the caller owns exclusively.
func (x DistMap) Clone() DistMap {
	if len(x.ids) == 0 {
		return DistMap{}
	}
	ids, ds := allocPairs(len(x.ids))
	return DistMap{ids: append(ids, x.ids...), ds: append(ds, x.ds...)}
}

// IsSorted reports whether the entries are strictly sorted by node ID, the
// representation invariant of DistMap.
func (x DistMap) IsSorted() bool {
	for i := 1; i < len(x.ids); i++ {
		if x.ids[i-1] >= x.ids[i] {
			return false
		}
	}
	return true
}

// SortFunc sorts the entries of an exclusively owned map in place by the
// given ordering (see the aliasing contract). The sort is not stable; use a
// total order (every ordering in this library breaks ties by node ID, which
// is unique per map).
func (x DistMap) SortFunc(less func(a, b Entry) bool) {
	sortPairs(x.ids, x.ds, less)
}

// Compact keeps, in order, the entries an exclusively owned map for which
// keep returns true, compacting them to the front of x's storage, and
// returns the kept prefix (see the aliasing contract). keep is called once
// per entry in ascending index order, so stateful sweeps are sound.
func (x DistMap) Compact(keep func(Entry) bool) DistMap {
	w := 0
	for i := range x.ids {
		if keep(Entry{Node: x.ids[i], Dist: x.ds[i]}) {
			x.ids[w] = x.ids[i]
			x.ds[w] = x.ds[i]
			w++
		}
	}
	return DistMap{ids: x.ids[:w], ds: x.ds[:w]}
}

// Relabel returns a fresh map holding x's entries under the keys key[id],
// sorted by the new keys. key must be injective on x's keys. The frt package
// uses it to move LE lists between node keys and rank keys.
func (x DistMap) Relabel(key []NodeID) DistMap {
	n := len(x.ids)
	if n == 0 {
		return DistMap{}
	}
	ids, ds := allocPairs(n)
	ids, ds = ids[:n], ds[:n]
	for i, id := range x.ids {
		ids[i], ds[i] = key[id], x.ds[i]
	}
	sortPairs(ids, ds, byKey)
	return DistMap{ids: ids, ds: ds}
}

func byKey(a, b Entry) bool { return a.Node < b.Node }

// Staircase keeps, in key order, every entry whose distance is strictly
// below the distance of each earlier entry, so the distances of the result
// strictly decrease. It is a pure filter: x is returned unchanged when every
// entry survives, and a fresh right-sized map otherwise.
//
// On maps keyed by rank it is exactly the LE-list projection of
// Definition 7.3 (an entry survives iff no lower-ranked entry is at most as
// far), which is what the frt package's fixpoints key their lists by.
func Staircase(x DistMap) DistMap {
	if len(x.ds) == 0 {
		return x
	}
	kept := 1
	best := x.ds[0]
	for _, d := range x.ds[1:] {
		if d < best {
			best = d
			kept++
		}
	}
	if kept == len(x.ds) {
		return x
	}
	ids, ds := allocPairs(kept)
	ids, ds = append(ids, x.ids[0]), append(ds, x.ds[0])
	best = x.ds[0]
	for i, d := range x.ds[1:] {
		if d < best {
			best = d
			ids, ds = append(ids, x.ids[i+1]), append(ds, d)
		}
	}
	return DistMap{ids: ids, ds: ds}
}

// StaircaseInPlace is Staircase for exclusively owned maps: it compacts the
// survivors to the front of x's storage and allocates nothing (see the
// aliasing contract).
func StaircaseInPlace(x DistMap) DistMap {
	if len(x.ds) == 0 {
		return x
	}
	w := 1
	best := x.ds[0]
	for i, d := range x.ds[1:] {
		if d < best {
			best = d
			x.ids[w], x.ds[w] = x.ids[i+1], d
			w++
		}
	}
	return DistMap{ids: x.ids[:w], ds: x.ds[:w]}
}

// String renders the map as "{v:d, …}" for debugging and test failure
// messages.
func (x DistMap) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range x.ids {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%g", x.ids[i], x.ds[i])
	}
	b.WriteByte('}')
	return b.String()
}

// DistMapModule implements the zero-preserving semimodule D over the
// min-plus semiring (Corollary 2.2): aggregation is the node-wise minimum
// and propagation over an edge of weight s uniformly increases all stored
// distances by s.
type DistMapModule struct{}

// Add returns the node-wise minimum of x and y (Equation 2.6). It is the
// k = 2 case of the SoA min-merge ladder (distmerge.go) that Aggregate
// runs, so Add and Aggregate share one merge implementation; an empty side
// returns the other side unchanged (aliased), per the sharing contract.
func (DistMapModule) Add(x, y DistMap) DistMap {
	if x.Len() == 0 {
		return y
	}
	if y.Len() == 0 {
		return x
	}
	oIds, oDs := allocPairs(x.Len() + y.Len())
	oIds, oDs = merge2Into(oIds, oDs, x.ids, x.ds, 0, y.ids, y.ds, 0)
	return DistMap{ids: oIds, ds: oDs}
}

// SMul returns s ⊙ x (Equation 2.7): every stored distance is increased by
// s. Multiplying by ∞ yields ⊥ (Equation 2.2): information does not survive
// propagation over a non-edge. s == 0 is the scalar identity and returns x
// itself; for s > 0 the result shares x's node-ID array and carries a fresh
// distance array — both safe under the aliasing contract of DistMap (values
// are immutable once shared), and pinned by TestDistMapSafeAliasing.
func (DistMapModule) SMul(s float64, x DistMap) DistMap {
	if IsInf(s) || x.Len() == 0 {
		return DistMap{}
	}
	if s == 0 {
		return x
	}
	ds := make([]float64, len(x.ds))
	for i, d := range x.ds {
		ds[i] = d + s
	}
	return DistMap{ids: x.ids, ds: ds}
}

// SMulInPlace is SMul for caller-owned values: it shifts the stored
// distances inside x's backing array and returns the (possibly empty)
// result. It must only be applied to a DistMap the caller owns exclusively —
// never to a value that was handed to or received from the algebra or the
// engine, whose sharing discipline treats values as immutable.
func (DistMapModule) SMulInPlace(s float64, x DistMap) DistMap {
	if IsInf(s) || x.Len() == 0 {
		return DistMap{}
	}
	if s == 0 {
		return x
	}
	for i := range x.ds {
		x.ds[i] += s
	}
	return x
}

// Aggregate implements the Aggregator fast path: the k-way aggregation of
// Lemma 2.3, merging self and every propagated neighbor list in one pass
// (min per node ID, shifts applied on the fly) instead of folding Add/SMul.
// Dead terms (s = ∞ or ⊥ states) are skipped.
//
// The merge runs over the SoA node-ID arrays through the branch-light
// kernel of distmerge.go: direct 2-/3-/4-/8-way merges for k ≤ 8, and
// reduction rounds of 8-way merges for every larger k.
// Unfiltered, it merges straight into the freshly allocated result. With a
// filter, it merges into scratch, filters there in place, and allocates
// only the survivors: under a top-k or LE projection the per-node
// allocation is the filtered size, not the raw merge size, and the retained
// states stay dense for the next iteration's reads.
func (DistMapModule) Aggregate(sc *Scratch, self DistMap, terms []Term[float64, DistMap], filter Filter[DistMap]) DistMap {
	// The stack gather and the scratch headers below stay in separate
	// locals: sharing one lets sb escape to the heap.
	var sb smallLists
	if n, total, ok := sb.gather(self, terms); ok {
		oIds, oDs := sc.mergeOut(total, filter)
		oIds, oDs = mergeUpTo8Into(oIds, oDs, sb.ids[:n], sb.ds[:n], sb.shifts[:n])
		return filterOut(DistMap{ids: oIds, ds: oDs}, filter)
	}
	sc.growDist(len(terms) + 1)
	ids := sc.dIds[:0]
	ds := sc.dDs[:0]
	shifts := sc.shifts[:0]
	total := 0
	if self.Len() > 0 {
		ids = append(ids, self.ids)
		ds = append(ds, self.ds)
		shifts = append(shifts, 0)
		total += self.Len()
	}
	for _, t := range terms {
		if IsInf(t.S) || t.X.Len() == 0 {
			continue
		}
		ids = append(ids, t.X.ids)
		ds = append(ds, t.X.ds)
		shifts = append(shifts, t.S)
		total += t.X.Len()
	}
	oIds, oDs := sc.mergeOut(total, filter)
	oIds, oDs = mergeDistInto(sc, oIds, oDs, ids, ds, shifts)
	for i := range ids {
		ids[i], ds[i] = nil, nil // release state references so pooled scratch cannot pin them
	}
	sc.dIds, sc.dDs, sc.shifts = ids[:0], ds[:0], shifts[:0]
	return filterOut(DistMap{ids: oIds, ds: oDs}, filter)
}

// mergeOut returns the empty output buffers of a merge of total entries:
// the freshly allocated result when unfiltered, the pre-grown scratch
// buffer (so the merge never reallocates out of it) when filtered.
func (sc *Scratch) mergeOut(total int, filter Filter[DistMap]) ([]NodeID, []float64) {
	if filter == nil {
		return allocPairs(total)
	}
	o := &sc.out
	if cap(o.ids) < total {
		o.ids = make([]NodeID, 0, total)
		o.ds = make([]float64, 0, total)
	}
	return o.ids[:0], o.ds[:0]
}

// filterOut turns a merge written into mergeOut's buffers into Aggregate's
// result: as is when unfiltered; filtered in scratch, with the survivors
// right-sized into one fresh block (see allocPairs), otherwise.
func filterOut(merged DistMap, filter Filter[DistMap]) DistMap {
	if filter == nil {
		return merged
	}
	return filter(merged).Clone()
}

// smallLists is the stack-resident gather buffer of the ≤ 8-list
// aggregation fast path. Gathering list headers into the pooled scratch
// slices costs a GC write barrier per pointer on the way in and another on
// the release nil-out — pure overhead that dominates wavefront-shaped
// fixpoints, where almost every state is ⊥ or a near-singleton and nearly
// every aggregation on a bounded-degree graph has ≤ 8 live lists. A stack
// buffer has no barriers and nothing to release.
type smallLists struct {
	ids    [8][]NodeID
	ds     [8][]float64
	shifts [8]float64
}

// gather fills b with the live lists (finite scalar, non-⊥ state) of an
// aggregation in input order, self first. ok reports whether everything fit;
// on overflow the caller takes the scratch-backed general path (the partial
// gather is discarded — rescanning costs two comparisons per term).
func (b *smallLists) gather(self DistMap, terms []Term[float64, DistMap]) (n, total int, ok bool) {
	if self.Len() > 0 {
		b.ids[0], b.ds[0], b.shifts[0] = self.ids, self.ds, 0
		n, total = 1, self.Len()
	}
	for i := range terms {
		t := &terms[i] // by pointer: a Term is 56 bytes, too wide to copy per visit
		l := len(t.X.ids)
		if IsInf(t.S) || l == 0 {
			continue
		}
		if n == len(b.ids) {
			return n, total, false
		}
		b.ids[n], b.ds[n], b.shifts[n] = t.X.ids, t.X.ds, t.S
		total += l
		n++
	}
	return n, total, true
}

// Zero returns ⊥, the empty distance map.
func (DistMapModule) Zero() DistMap { return DistMap{} }

// Equal reports whether x and y store identical entries.
func (DistMapModule) Equal(x, y DistMap) bool {
	if len(x.ids) != len(y.ids) {
		return false
	}
	for i := range x.ids {
		if x.ids[i] != y.ids[i] {
			return false
		}
	}
	for i := range x.ds {
		if x.ds[i] != y.ds[i] {
			return false
		}
	}
	return true
}

var _ Aggregator[float64, DistMap] = DistMapModule{}

// StaircaseModule is DistMapModule with the staircase projection fused into
// its aggregation: Add, SMul, Zero and Equal are DistMapModule's, and
//
//	Aggregate(sc, self, terms, filter) = filter(Staircase(self ⊕ ⊕_i s_i ⊙ x_i))
//
// (nil filter = identity), computed in one pruning pass over the input lists
// (staircaseInto in distmerge.go) instead of a full k-way merge followed by
// a Staircase scan. That meets the Aggregator contract for every filter r
// with r∘Staircase = r — Staircase itself, the LE projection of Definition
// 7.3 on rank-keyed maps, which is the filter the frt package's fixpoints
// run it with. Corollary 2.17 is what lets the projection act on the
// partial merge: an entry already dominated by an earlier-keyed survivor
// never reaches the output, so the pass drops it as soon as it is read.
// The result is bitwise Staircase(DistMapModule{}.Aggregate(sc, self,
// terms, nil)).
type StaircaseModule struct{ DistMapModule }

// Aggregate implements the fused Aggregator fast path (see the type). Dead
// terms (s = ∞ or ⊥ states) are skipped. The pass reads the lists in place
// — no header gather — writes into scratch, and allocates only the
// survivors, one block per non-empty result.
func (StaircaseModule) Aggregate(sc *Scratch, self DistMap, terms []Term[float64, DistMap], filter Filter[DistMap]) DistMap {
	sc.growStair(len(terms) + 1)
	o := &sc.out
	oIds, oDs := staircaseInto(o.ids[:0], o.ds[:0], self, terms, sc.slot, sc.pos, sc.head, sc.val)
	// The buffer starts empty and grows only when a pass outgrows it: a
	// staircase keeps few of the entries it reads, so sizing it to the
	// input, as the merge does, would waste scratch.
	if cap(oIds) > cap(o.ids) {
		o.ids = oIds[:0]
	}
	if cap(oDs) > cap(o.ds) {
		o.ds = oDs[:0]
	}
	out := DistMap{ids: oIds, ds: oDs}.Clone()
	if filter != nil {
		out = filter(out)
	}
	return out
}

var _ Aggregator[float64, DistMap] = StaircaseModule{}

// Normalize sorts the entries by node ID, keeping the minimum distance per
// node, and drops ∞ entries. It is used to establish the representation
// invariant on entry lists built out of order.
func Normalize(x DistMap) DistMap {
	if x.Len() == 0 {
		return DistMap{}
	}
	out := x.Entries()
	slices.SortFunc(out, func(a, b Entry) int {
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Dist, b.Dist)
	})
	w := 0
	for i := 0; i < len(out); i++ {
		if IsInf(out[i].Dist) {
			continue
		}
		if w > 0 && out[w-1].Node == out[i].Node {
			continue
		}
		out[w] = out[i]
		w++
	}
	return FromEntries(out[:w]...)
}

// MergeMin computes ⊕ over many distance maps at once, the aggregation step
// of Lemma 2.3. It is equivalent to folding Add but merges in one pass
// through the k-way kernel over pooled scratch semantics (here: a local
// scratch, since MergeMin is not on the engine's hot path).
func MergeMin(xs ...DistMap) DistMap {
	switch len(xs) {
	case 0:
		return DistMap{}
	case 1:
		return xs[0]
	case 2:
		return DistMapModule{}.Add(xs[0], xs[1])
	}
	var sc Scratch
	terms := make([]Term[float64, DistMap], len(xs))
	for i, x := range xs {
		terms[i] = Term[float64, DistMap]{S: 0, X: x}
	}
	return DistMapModule{}.Aggregate(&sc, DistMap{}, terms, nil)
}

// SupportedEntries visits every individual derivation of xq from xw over an
// arc of weight a: each pair of positions (i, j) with
// xq.ids[i] == xw.ids[j] and xq.ds[i] == a + xw.ds[j] exactly. In a
// min-plus fixpoint every non-self entry of a node has such a supporting
// in-neighbor (the next hop of a shortest path, where the LE-list suffix
// property keeps the target alive through the filter), so the
// incremental-repair taint walk uses it to trace which entries an edge
// deletion or weight increase can invalidate — per source rather than per
// node, so an edit only taints the entries whose own support chain crosses
// the edited edge instead of every node any shortest path happens to route
// through. The comparison is float-exact by design: the fixpoint derived d
// as a + dw with this very addition, so checking a + dw == d (never
// d − a == dw, which floating-point subtraction does not invert) identifies
// derivations bitwise. Both maps are sorted by node ID (the representation
// invariant) and node IDs match at most once per map, so yield fires at
// most min(len(xq), len(xw)) times in one linear merge-join with no
// allocation.
func SupportedEntries(xq, xw DistMap, a float64, yield func(i, j int)) {
	i, j := 0, 0
	for i < len(xq.ids) && j < len(xw.ids) {
		switch {
		case xq.ids[i] < xw.ids[j]:
			i++
		case xq.ids[i] > xw.ids[j]:
			j++
		default:
			if xq.ds[i] == a+xw.ds[j] {
				yield(i, j)
			}
			i++
			j++
		}
	}
}

// TopKFilter returns the representative projection of source detection
// (Example 3.2): keep only entries whose node is in sources (nil means all
// nodes), whose distance is at most maxDist, and which are among the k
// smallest entries (ties broken by node ID). k ≤ 0 means unbounded. The
// input is left untouched; the result never shares storage with it.
func TopKFilter(k int, maxDist float64, sources func(NodeID) bool) Filter[DistMap] {
	inPlace := TopKFilterInPlace(k, maxDist, sources)
	return func(x DistMap) DistMap {
		return inPlace(x.Clone())
	}
}

// TopKFilterInPlace is TopKFilter for caller-owned values: it compacts the
// surviving entries into x's backing arrays, allocating nothing for k ≤ 64.
// The engine applies it to the freshly merged output of the aggregation fast
// path; it must never be used on shared DistMap values (see the type's
// aliasing contract).
//
// The k smallest entries by (distance, node) are selected with a bounded
// max-heap threshold scan instead of a full sort; since the input is sorted
// by node ID and the survivor set is unique (node IDs are distinct), the
// in-order compaction already leaves the result sorted — no re-sort pass.
func TopKFilterInPlace(k int, maxDist float64, sources func(NodeID) bool) Filter[DistMap] {
	if IsInf(maxDist) && sources == nil {
		// Pure top-k: no compaction pass, and the truncation guard sits
		// directly in the closure — the engine calls the filter once per
		// recomputed node, and on wavefront workloads nearly every state is
		// already within k.
		return func(x DistMap) DistMap {
			if k > 0 && x.Len() > k {
				x = topKSelect(x, k)
			}
			if x.Len() == 0 {
				return DistMap{}
			}
			return x
		}
	}
	return func(x DistMap) DistMap {
		kept := x
		if !IsInf(maxDist) || sources != nil {
			kept = x.Compact(func(e Entry) bool {
				return e.Dist <= maxDist && (sources == nil || sources(e.Node))
			})
		}
		kept = topKTruncate(kept, k)
		if kept.Len() == 0 {
			return DistMap{}
		}
		return kept
	}
}

// topKTruncate reduces kept (sorted by node ID) to its k smallest entries by
// (distance, node) in place, preserving node order. It selects the k-th
// smallest pair with a bounded max-heap over stack (k ≤ 64) or heap scratch
// and keeps exactly the entries at or below that threshold — the same
// survivor set a full (distance, node) sort would keep, without sorting.
func topKTruncate(kept DistMap, k int) DistMap {
	// The guard lives apart from the selection so it inlines into the filter
	// closures: the common case (nothing to truncate) must not pay the
	// prologue zeroing of the selection's stack-resident heap buffers.
	if k <= 0 || kept.Len() <= k {
		return kept
	}
	return topKSelect(kept, k)
}

// topKSelect is the truncating path of topKTruncate; kept.Len() > k > 0.
func topKSelect(kept DistMap, k int) DistMap {
	var idBuf [64]NodeID
	var dBuf [64]float64
	var hIds []NodeID
	var hDs []float64
	if k <= len(idBuf) {
		hIds, hDs = idBuf[:k], dBuf[:k]
	} else {
		hIds, hDs = make([]NodeID, k), make([]float64, k)
	}
	// Max-heap of the k smallest (dist, node) pairs seen so far; the root is
	// the running threshold.
	ids, ds := kept.ids, kept.ds
	for i := 0; i < k; i++ {
		hIds[i], hDs[i] = ids[i], ds[i]
	}
	for i := k / 2; i >= 0; i-- {
		siftDownMax(hIds, hDs, i)
	}
	for i := k; i < len(ids); i++ {
		if pairLess(ds[i], ids[i], hDs[0], hIds[0]) {
			hIds[0], hDs[0] = ids[i], ds[i]
			siftDownMax(hIds, hDs, 0)
		}
	}
	tid, td := hIds[0], hDs[0]
	w := 0
	for i := range ids {
		if pairLess(ds[i], ids[i], td, tid) || (ds[i] == td && ids[i] == tid) {
			ids[w], ds[w] = ids[i], ds[i]
			w++
		}
	}
	return DistMap{ids: ids[:w], ds: ds[:w]}
}

// pairLess orders (dist, node) pairs lexicographically — the tie-break order
// of the top-k filter.
func pairLess(ad float64, ai NodeID, bd float64, bi NodeID) bool {
	return ad < bd || (ad == bd && ai < bi)
}

// siftDownMax restores the binary max-heap property (ordered by pairLess,
// largest pair at the root) at index i of the parallel-array heap.
func siftDownMax(hIds []NodeID, hDs []float64, i int) {
	n := len(hIds)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && pairLess(hDs[big], hIds[big], hDs[l], hIds[l]) {
			big = l
		}
		if r < n && pairLess(hDs[big], hIds[big], hDs[r], hIds[r]) {
			big = r
		}
		if big == i {
			return
		}
		hIds[i], hIds[big] = hIds[big], hIds[i]
		hDs[i], hDs[big] = hDs[big], hDs[i]
		i = big
	}
}

// sortPairs sorts the parallel (ids, dists) arrays by less: insertion sort
// for short runs, quicksort with median-of-three pivots above, heapsort on
// pathological recursion depth — allocation-free and deterministic for the
// total orders used in this library.
func sortPairs(ids []NodeID, ds []float64, less func(a, b Entry) bool) {
	sortPairsRange(ids, ds, 0, len(ids), 2*bitsLen(len(ids)), less)
}

func bitsLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

func sortPairsRange(ids []NodeID, ds []float64, lo, hi, depth int, less func(a, b Entry) bool) {
	for hi-lo > 16 {
		if depth == 0 {
			heapSortPairs(ids, ds, lo, hi, less)
			return
		}
		depth--
		p := medianOfThreePivot(ids, ds, lo, hi, less)
		i, j := lo, hi-1
		for i <= j {
			for less(Entry{ids[i], ds[i]}, p) {
				i++
			}
			for less(p, Entry{ids[j], ds[j]}) {
				j--
			}
			if i <= j {
				ids[i], ids[j] = ids[j], ids[i]
				ds[i], ds[j] = ds[j], ds[i]
				i++
				j--
			}
		}
		// Recurse on the smaller half, loop on the larger.
		if j-lo < hi-i {
			sortPairsRange(ids, ds, lo, j+1, depth, less)
			lo = i
		} else {
			sortPairsRange(ids, ds, i, hi, depth, less)
			hi = j + 1
		}
	}
	// Insertion sort for the short tail.
	for i := lo + 1; i < hi; i++ {
		id, d := ids[i], ds[i]
		j := i - 1
		for j >= lo && less(Entry{id, d}, Entry{ids[j], ds[j]}) {
			ids[j+1], ds[j+1] = ids[j], ds[j]
			j--
		}
		ids[j+1], ds[j+1] = id, d
	}
}

func medianOfThreePivot(ids []NodeID, ds []float64, lo, hi int, less func(a, b Entry) bool) Entry {
	m := lo + (hi-lo)/2
	a, b, c := Entry{ids[lo], ds[lo]}, Entry{ids[m], ds[m]}, Entry{ids[hi-1], ds[hi-1]}
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

func heapSortPairs(ids []NodeID, ds []float64, lo, hi int, less func(a, b Entry) bool) {
	n := hi - lo
	sift := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < n && less(Entry{ids[lo+big], ds[lo+big]}, Entry{ids[lo+l], ds[lo+l]}) {
				big = l
			}
			if r < n && less(Entry{ids[lo+big], ds[lo+big]}, Entry{ids[lo+r], ds[lo+r]}) {
				big = r
			}
			if big == i {
				return
			}
			ids[lo+i], ids[lo+big] = ids[lo+big], ids[lo+i]
			ds[lo+i], ds[lo+big] = ds[lo+big], ds[lo+i]
			i = big
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sift(i, n)
	}
	for end := n - 1; end > 0; end-- {
		ids[lo], ids[lo+end] = ids[lo+end], ids[lo]
		ds[lo], ds[lo+end] = ds[lo+end], ds[lo]
		sift(0, end)
	}
}
