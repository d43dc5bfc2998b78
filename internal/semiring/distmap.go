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
// Filters follow the same rule (see Filter): a filter never writes its
// argument, and returns either the argument itself or a map sharing no
// storage with it. So no operation of this package writes to a map it did
// not allocate, and states may share backing storage freely (see
// SingletonStates). Aggregate is the one place that filters a value it owns
// — the merge in its scratch — and it copies the result out when the filter
// hands that merge back.
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
// published, and neither the algebra nor the filters write their inputs.
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
	if n > relabelInsertionMax {
		es := make([]Entry, n)
		for i, id := range x.ids {
			es[i] = Entry{Node: key[id], Dist: x.ds[i]}
		}
		slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Node, b.Node) })
		for i, e := range es {
			ids[i], ds[i] = e.Node, e.Dist
		}
		return DistMap{ids: ids, ds: ds}
	}
	// Insertion sort straight into the result: LE lists, the maps Relabel
	// mostly sees, are O(log n) long.
	for i, id := range x.ids {
		k, d := key[id], x.ds[i]
		j := i
		for ; j > 0 && ids[j-1] > k; j-- {
			ids[j], ds[j] = ids[j-1], ds[j-1]
		}
		ids[j], ds[j] = k, d
	}
	return DistMap{ids: ids, ds: ds}
}

// relabelInsertionMax is the longest map Relabel sorts by insertion.
const relabelInsertionMax = 32

// Staircase keeps, in key order, every entry whose distance is strictly
// below the distance of each earlier entry, so the distances of the result
// strictly decrease. It is a pure filter: x is returned unchanged when every
// entry survives, and a fresh right-sized map otherwise.
//
// On maps keyed by rank it is exactly the LE-list projection of
// Definition 7.3 (an entry survives iff no lower-ranked entry is at most as
// far), which is what the frt package's fixpoints key their lists by.
func Staircase(x DistMap) DistMap {
	// The longest strictly decreasing prefix survives whole; on a staircase,
	// what StaircaseModule's outputs are, that is all of x.
	n := len(x.ds)
	first := 1
	for first < n && x.ds[first] < x.ds[first-1] {
		first++
	}
	if first >= n {
		return x
	}
	// One scan of the rest notes where the later survivors are, so the
	// copy re-reads only those instead of re-running the data-dependent
	// scan; a rescan covers the rare list with more than len(at) of them.
	var at [16]int32
	more := 0
	best := x.ds[first-1]
	for i := first + 1; i < n; i++ {
		if d := x.ds[i]; d < best {
			best = d
			if more < len(at) {
				at[more] = int32(i)
			}
			more++
		}
	}
	ids, ds := allocPairs(first + more)
	ids, ds = append(ids, x.ids[:first]...), append(ds, x.ds[:first]...)
	if more <= len(at) {
		for _, i := range at[:more] {
			ids, ds = append(ids, x.ids[i]), append(ds, x.ds[i])
		}
		return DistMap{ids: ids, ds: ds}
	}
	best = x.ds[first-1]
	for i := first + 1; i < n; i++ {
		if d := x.ds[i]; d < best {
			best = d
			ids, ds = append(ids, x.ids[i]), append(ds, d)
		}
	}
	return DistMap{ids: ids, ds: ds}
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

// Aggregate implements the Aggregator fast path: the k-way aggregation of
// Lemma 2.3, merging self and every propagated neighbor list in one pass
// (min per node ID, shifts applied on the fly) instead of folding Add/SMul.
// Dead terms (s = ∞ or ⊥ states) are skipped.
//
// The merge runs over the SoA node-ID arrays through the branch-light
// kernel of distmerge.go: direct 2-/3-/4-/8-way merges for k ≤ 8, and
// reduction rounds of 8-way merges for every larger k.
// Unfiltered, it merges straight into the freshly allocated result. With a
// filter, it merges into scratch and filters from there, so only the
// survivors are allocated: under a top-k or LE projection the per-node
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
// result: as is when unfiltered, filtered otherwise. A pure filter returns
// either its argument — here the scratch merge, which is then copied out
// into one right-sized block (see allocPairs) — or a map it allocated.
func filterOut(merged DistMap, filter Filter[DistMap]) DistMap {
	if filter == nil {
		return merged
	}
	out := filter(merged)
	if unsafe.SliceData(out.ids) == unsafe.SliceData(merged.ids) {
		return out.Clone()
	}
	return out
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
//
// It also implements Differ, so the sparse fixpoint loop propagates only
// the entries a list gained, not whole lists (mbf's package doc).
type StaircaseModule struct{ DistMapModule }

// Aggregate implements the fused Aggregator fast path (see the type). Dead
// terms (s = ∞ or ⊥ states) are skipped. The pass reads the lists in place
// — no header gather — writes into scratch, and allocates only the
// survivors, one block per non-empty result that differs from self; a
// result equal to self is self.
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
	// A pass that reproduces self returns it uncopied: most recomputes of a
	// fixpoint's later iterations confirm a state, and the copy would be
	// their only allocation.
	out := DistMap{ids: oIds, ds: oDs}
	if (DistMapModule{}).Equal(out, self) {
		out = self
	} else {
		out = out.Clone()
	}
	if filter != nil {
		out = filter(out)
	}
	return out
}

// Diff implements Differ: the entries of cur whose key old lacks or maps to
// another distance, in key order, appended to a (see Differ). One merge walk
// over both lists.
func (StaircaseModule) Diff(a *DeltaArena, old, cur DistMap) DistMap {
	if a == nil {
		a = new(DeltaArena)
	}
	start := len(a.ids)
	ids, ds := a.ids, a.ds
	j := 0
	for i, k := range cur.ids {
		for j < len(old.ids) && old.ids[j] < k {
			j++
		}
		if j < len(old.ids) && old.ids[j] == k && old.ds[j] == cur.ds[i] {
			continue
		}
		ids, ds = append(ids, k), append(ds, cur.ds[i])
	}
	a.ids, a.ds = ids, ds
	if len(ids) == start {
		return DistMap{}
	}
	// Full slice expressions: an append to the result must not run into
	// the arena's later lists.
	return DistMap{ids: ids[start:len(ids):len(ids)], ds: ds[start:len(ds):len(ds)]}
}

var (
	_ Aggregator[float64, DistMap] = StaircaseModule{}
	_ Differ[DistMap]              = StaircaseModule{}
)

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
// smallest entries (ties broken by node ID). k ≤ 0 means unbounded. It is a
// pure filter: x is returned unchanged when every entry survives, and a
// fresh right-sized map otherwise.
func TopKFilter(k int, maxDist float64, sources func(NodeID) bool) Filter[DistMap] {
	if IsInf(maxDist) && sources == nil {
		// Pure top-k: the guard sits directly in the closure — the engine
		// calls the filter once per recomputed node, nearly every state of
		// a wavefront workload is already within k, and that case must not
		// pay the prologue zeroing of topK's stack-resident heap buffers.
		return func(x DistMap) DistMap {
			if k <= 0 || x.Len() <= k {
				return x
			}
			return topK(x, k, maxDist, sources)
		}
	}
	return func(x DistMap) DistMap { return topK(x, k, maxDist, sources) }
}

// topK is TopKFilter's filtering pass. It reads x once to find the k-th
// smallest eligible (distance, node) pair with a bounded max-heap over stack
// (k ≤ 64) or heap scratch, then copies the eligible entries at or below
// that threshold into one right-sized block — the survivor set a full
// (distance, node) sort would keep, in node order, without sorting.
func topK(x DistMap, k int, maxDist float64, sources func(NodeID) bool) DistMap {
	var idBuf [64]NodeID
	var dBuf [64]float64
	hIds, hDs := idBuf[:0], dBuf[:0]
	if k > len(idBuf) {
		hIds, hDs = make([]NodeID, 0, k), make([]float64, 0, k)
	}
	// Max-heap of the k smallest eligible pairs seen so far; once full, its
	// root is the running threshold.
	eligible := 0
	for i, id := range x.ids {
		d := x.ds[i]
		if !(d <= maxDist) || (sources != nil && !sources(id)) {
			continue
		}
		eligible++
		switch {
		case k <= 0:
		case len(hIds) < k:
			hIds, hDs = append(hIds, id), append(hDs, d)
			if len(hIds) == k {
				for j := k/2 - 1; j >= 0; j-- {
					siftDownMax(hIds, hDs, j)
				}
			}
		case pairLess(d, id, hDs[0], hIds[0]):
			hIds[0], hDs[0] = id, d
			siftDownMax(hIds, hDs, 0)
		}
	}
	kept, cut := eligible, k > 0 && eligible > k
	if cut {
		kept = k
	}
	if kept == len(x.ids) {
		return x
	}
	if kept == 0 {
		return DistMap{}
	}
	ids, ds := allocPairs(kept)
	for i, id := range x.ids {
		d := x.ds[i]
		if !(d <= maxDist) || (sources != nil && !sources(id)) || (cut && pairLess(hDs[0], hIds[0], d, id)) {
			continue
		}
		ids, ds = append(ids, id), append(ds, d)
	}
	return DistMap{ids: ids, ds: ds}
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
