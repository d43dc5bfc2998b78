// Package routing implements oblivious routing over an FRT tree ensemble —
// the third application scenario of the paper's §9–10 family. The scheme is
// the classic tree-based one: route a demand (u, v) along the unique tree
// path of an embedding tree, mapping every tree edge to a shortest
// center-to-center path in G. Obliviousness is the point — the next-hop
// tables are computed once from the embedding, independent of the demand
// set, and the FRT stretch bound makes every routed path an expected
// O(log n)-approximation of the shortest path.
//
// Tables is also the application tier's one path expander: buy-at-bulk and
// Steiner map their loaded tree edges to graph paths through Tables.Path,
// either on tables built for one solve (New, towards exactly the parent
// centers the solve loads) or on the tables a daemon already caches for
// /route.
//
// The implementation rides entirely on the fast layers:
//
//   - trees come from the shared frt.Embedder pipeline (or an injected
//     ensemble, so a daemon serves routing from the same trees as its
//     distance oracle),
//   - Route picks its tree through an frt.OracleIndex over the visited
//     trees (TreeDist, the per-tree distance the distance oracle serves),
//     and reads the chosen tree path with one lockstep parent walk,
//   - the next-hop tables are mbf.RoutingTablesTo towards the distinct
//     cluster centers, shared by all trees: one distance-map fixpoint on
//     the sparse engine, then one pass that derives each entry's next hop
//     from the exact distances,
//   - paths are materialised by mbf.Routes.Walk, one trusted hop at a
//     time. A table entry is (exact distance, smallest neighbour on a
//     shortest path) and does not depend on which other targets share the
//     fixpoint, so a walk is the same on every Tables that routes towards
//     its end.
package routing

import (
	"fmt"
	"slices"

	"parmbf/internal/apps/scenario"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
)

// Options is the unified application-scenario configuration; see
// scenario.Options. Build draws Trees trees (default 4) through the shared
// embedder pipeline unless an Ensemble is injected.
type Options = scenario.Options

// defaultTrees is the ensemble size Build uses when Options does not say
// otherwise: a handful of trees lets Route pick the best tree per pair,
// tightening the per-pair stretch without changing the oblivious tables.
const defaultTrees = 4

// Tables is a built oblivious-routing scheme: the visited trees and their
// index, plus one shared next-hop table towards a set of target centers.
type Tables struct {
	g     *graph.Graph
	trees []*frt.Tree
	// index answers the per-tree distances Route picks its tree by (nil
	// when the tables hold no trees).
	index *frt.OracleIndex
	// tables routes every node towards every target center; one sparse
	// fixpoint serves all trees because the target set is the union of
	// their centers.
	tables *mbf.Routes
	// isTarget marks the graph nodes the shared tables can route towards
	// (for Build: the internal-node centers of all trees). Segments ending
	// elsewhere are walked in reverse — valid on undirected graphs.
	isTarget []bool
}

// RouteResult is one routed demand.
type RouteResult struct {
	// Path is the walked node sequence from U to V (Path[0] = U, last = V);
	// every consecutive pair is an edge of G.
	Path []graph.Node
	// Length is the total edge weight of Path.
	Length float64
	// Tree is the index (into the built ensemble) of the tree that routed
	// the pair — the one with the smallest tree distance.
	Tree int
	// TreeDist is that tree's distance, the route's certificate:
	// Length ≤ CertificateFactor·TreeDist (see CertificateFactor).
	TreeDist float64
}

// Build constructs the oblivious routing tables for g: the visited trees'
// index and next-hop tables towards every internal-node center. A
// structurally invalid tree is an error.
func Build(g *graph.Graph, opts Options) (*Tables, error) {
	ens, err := opts.Resolve(g, defaultTrees)
	if err != nil {
		return nil, err
	}
	visit, err := opts.Visit(ens)
	if err != nil {
		return nil, err
	}
	index, err := frt.NewOracleIndex(visit)
	if err != nil {
		return nil, err
	}
	var targets []graph.Node
	for _, tree := range visit {
		// Every internal tree node's center is a potential segment endpoint;
		// leaves' centers are the graph nodes themselves and need no table
		// entry (they are only ever walked *from*, or reached in reverse).
		isLeaf := make([]bool, tree.NumNodes())
		for _, l := range tree.Leaf {
			isLeaf[l] = true
		}
		for x := 0; x < tree.NumNodes(); x++ {
			if !isLeaf[x] {
				targets = append(targets, tree.Center[x])
			}
		}
	}
	rt := New(g, targets, opts.Tracker)
	rt.trees, rt.index = visit, index
	return rt, nil
}

// New builds path-expansion Tables, holding no trees, with next-hop tables
// towards targets only (repeats allowed): one sparse fixpoint whose state is
// n×|distinct targets|. Path expands any hop with an endpoint among the
// targets; Route needs tables from Build.
func New(g *graph.Graph, targets []graph.Node, tracker *par.Tracker) *Tables {
	rt := &Tables{g: g, isTarget: make([]bool, g.N())}
	for _, t := range targets {
		rt.isTarget[t] = true
	}
	if len(targets) > 0 {
		rt.tables = mbf.RoutingTablesTo(g, targets, tracker)
	}
	return rt
}

// NumTrees returns the number of trees the tables hold.
func (rt *Tables) NumTrees() int { return len(rt.trees) }

// Trees returns the trees in ensemble order, each structurally valid. The
// slice is shared: callers must not modify it.
func (rt *Tables) Trees() []*frt.Tree { return rt.trees }

// Graph returns the graph the tables route on.
func (rt *Tables) Graph() *graph.Graph { return rt.g }

// Route routes one demand obliviously: pick the tree with the smallest tree
// distance, walk its tree path as a chain of cluster centers, and expand
// every center hop into a shortest path in G via the shared next-hop tables.
func (rt *Tables) Route(u, v graph.Node) (*RouteResult, error) {
	if int(u) < 0 || int(u) >= rt.g.N() || int(v) < 0 || int(v) >= rt.g.N() {
		return nil, fmt.Errorf("routing: pair (%d, %d) out of range", u, v)
	}
	if u == v {
		return &RouteResult{Path: []graph.Node{u}}, nil
	}
	if len(rt.trees) == 0 {
		return nil, fmt.Errorf("routing: tables hold no trees")
	}
	best, bestDist := 0, rt.index.TreeDist(u, v, 0)
	for t := 1; t < len(rt.trees); t++ {
		if d := rt.index.TreeDist(u, v, t); d < bestDist {
			best, bestDist = t, d
		}
	}
	// The tree path of (u, v) read as centers, in one lockstep walk: up
	// from u to the LCA into the front of buf, up from v into its back, so
	// buf[j:] runs down to v. Consecutive duplicate centers (a cluster
	// keeping its center one level up) compact away — the walk shortcuts
	// them for free.
	tree := rt.trees[best]
	buf := make([]graph.Node, 2*rt.index.MaxDepth()+1)
	a, b, i, j := tree.Leaf[u], tree.Leaf[v], 0, len(buf)
	for ; a != b; a, b = tree.Parent[a], tree.Parent[b] {
		j--
		buf[i], buf[j] = tree.Center[a], tree.Center[b]
		i++
	}
	buf[i] = tree.Center[a]
	chain := slices.Compact(append(buf[:i+1], buf[j:]...))
	path := []graph.Node{u}
	length := 0.0
	for i := 1; i < len(chain); i++ {
		a, b := chain[i-1], chain[i]
		seg := rt.Path(a, b)
		if seg == nil {
			return nil, fmt.Errorf("routing: centers %d, %d disconnected", a, b)
		}
		for j := 1; j < len(seg); j++ {
			w, _ := rt.g.HasEdge(seg[j-1], seg[j])
			length += w
			path = append(path, seg[j])
		}
	}
	return &RouteResult{Path: path, Length: length, Tree: best, TreeDist: bestDist}, nil
}

// Path expands one center hop a→b into a shortest path of G, from a to b.
// One endpoint must be a target of the tables: a forward walk applies when b
// is one, else a reversed walk from b towards a. (On a Route chain every hop
// qualifies — internal centers are targets, and only the chain's first and
// last centers can be plain leaves.) Returns nil when neither endpoint is a
// target, either is out of range, or the two are disconnected.
func (rt *Tables) Path(a, b graph.Node) []graph.Node {
	n := len(rt.isTarget)
	if int(a) < 0 || int(a) >= n || int(b) < 0 || int(b) >= n || rt.tables == nil {
		return nil
	}
	if rt.isTarget[b] {
		return rt.tables.Walk(a, b)
	}
	seg := rt.tables.Walk(b, a)
	if seg == nil {
		return nil
	}
	for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
		seg[i], seg[j] = seg[j], seg[i]
	}
	return seg
}

// RouteBatch routes every pair, stopping at the first error.
func (rt *Tables) RouteBatch(pairs []frt.Pair) ([]*RouteResult, error) {
	out := make([]*RouteResult, len(pairs))
	for i, p := range pairs {
		r, err := rt.Route(p.U, p.V)
		if err != nil {
			return nil, fmt.Errorf("routing: pair %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// CertificateFactor bounds a route's length by its tree distance:
// Length ≤ CertificateFactor·TreeDist. The route maps each tree edge from a
// level-i cluster to its parent onto a shortest path between their centers
// c_i and c_{i+1}. Both centers lie within r_i = β2^i and r_{i+1} of the
// routed endpoint below them, so that path costs at most r_i + r_{i+1} =
// 3β2^i, against the edge's weight 2β2^i (the doubled weight of the frt
// Tree doc). Hence 3/2, and shortcutting repeated centers only shortens
// the route. Length ≤ TreeDist alone does not hold: on a unit-weight 7×7
// grid a K=5 ensemble routes 8 of its 1,176 pairs longer than TreeDist.
const CertificateFactor = 1.5

// Validate checks a routed result against g: endpoints match, every hop is a
// real edge, the length accounting is exact, and the tree-distance
// certificate Length ≤ CertificateFactor·TreeDist holds.
func Validate(g *graph.Graph, u, v graph.Node, r *RouteResult) error {
	if len(r.Path) == 0 || r.Path[0] != u || r.Path[len(r.Path)-1] != v {
		return fmt.Errorf("routing: path endpoints %v do not match pair (%d, %d)", r.Path, u, v)
	}
	total := 0.0
	for i := 1; i < len(r.Path); i++ {
		w, ok := g.HasEdge(r.Path[i-1], r.Path[i])
		if !ok {
			return fmt.Errorf("routing: hop {%d, %d} is not an edge", r.Path[i-1], r.Path[i])
		}
		total += w
	}
	if diff := total - r.Length; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("routing: length accounting off by %v", diff)
	}
	if u != v && r.Length > CertificateFactor*r.TreeDist+1e-9 {
		return fmt.Errorf("routing: length %v exceeds the certificate %v·%v", r.Length, CertificateFactor, r.TreeDist)
	}
	return nil
}
