// Package parmbf is a Go implementation of "Parallel Metric Tree Embedding
// based on an Algebraic View on Moore-Bellman-Ford" by Stephan Friedrichs
// and Christoph Lenzen (SPAA 2016, arXiv:1509.09047).
//
// The headline capability is sampling low-stretch metric tree embeddings in
// the style of Fakcharoenphol, Rao, and Talwar (FRT) from a weighted graph
// with polylogarithmic parallel depth and near-linear work: the graph is
// augmented with a hop set, embedded into an implicit complete graph H of
// polylogarithmic shortest-path diameter, and the Least-Element lists that
// encode the FRT tree are computed by a Moore-Bellman-Ford-like algorithm
// through an oracle that simulates iterations on H without materialising
// it.
//
// The package is a façade over the building blocks in internal/…, which it
// re-exports via type aliases:
//
//   - graphs and generators (internal/graph),
//   - the algebraic MBF-like framework (internal/semiring, internal/mbf),
//   - hop sets, the simulated graph H and its oracle (internal/hopset,
//     internal/simgraph),
//   - FRT sampling and baselines (internal/frt), including the Embedder,
//     which builds the hop set, H, and the oracle once per graph and then
//     draws ensembles of trees concurrently and deterministically,
//   - approximate metrics (internal/metric), spanners (internal/spanner),
//   - the Congest-model algorithms (internal/congest), and
//   - the k-median and buy-at-bulk applications (internal/apps/…).
//
// All randomness is explicit: every sampling function takes a seed (or an
// *RNG), making runs reproducible.
package parmbf

import (
	"io"

	"parmbf/internal/apps/buyatbulk"
	"parmbf/internal/apps/kmedian"
	"parmbf/internal/apps/routing"
	"parmbf/internal/apps/steiner"
	"parmbf/internal/congest"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/metric"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/spanner"
)

// Graph is an immutable undirected weighted graph in compressed-sparse-row
// form (see NewGraphBuilder).
type Graph = graph.Graph

// GraphBuilder accumulates edges — duplicates and reversed insertions
// welcome — and freezes them into an immutable Graph (see NewGraphBuilder).
type GraphBuilder = graph.Builder

// Node identifies a vertex (0-based dense integers).
type Node = graph.Node

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Matrix is a dense distance matrix over the min-plus semiring.
type Matrix = graph.Matrix

// Tree is a sampled FRT metric tree embedding.
type Tree = frt.Tree

// Embedding is one sample from the FRT distribution: the tree (whose Beta
// is the random scale), the random node order it was drawn with, and the
// LE-list iteration count.
type Embedding = frt.Embedding

// RNG is the deterministic splittable random number generator used by all
// sampling routines.
type RNG = par.RNG

// Tracker accumulates work/depth in the paper's DAG cost model.
type Tracker = par.Tracker

// DistMap is a sparse distance vector (the semimodule D of the paper).
type DistMap = semiring.DistMap

// Inf is the distance value meaning "unreachable".
var Inf = semiring.Inf

// NewGraphBuilder returns a builder for a graph on n nodes: call Add for
// each edge, then Freeze to obtain the immutable Graph all algorithms
// consume.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewRNG returns a deterministic random generator for the given seed.
func NewRNG(seed uint64) *RNG { return par.NewRNG(seed) }

// SampleTree draws one tree from the FRT distribution of g using the
// paper's polylog-depth pipeline (hop set → simulated graph H → LE lists
// via the MBF-like oracle). The expected stretch is O(log n); the returned
// tree always dominates: distT(u,v) ≥ dist(u,v,G) for all pairs.
func SampleTree(g *Graph, seed uint64) (*Embedding, error) {
	return frt.Sample(g, frt.Options{RNG: par.NewRNG(seed)})
}

// SampleTreeOnGraph draws one FRT tree by computing LE lists directly on g
// (the parallel form of the Khan et al. algorithm, §8.1): depth Θ(SPD(G))
// instead of polylog, but with a small constant factor — the quick way to
// sample ensembles of moderate graphs, e.g. for the oracle example.
func SampleTreeOnGraph(g *Graph, seed uint64) (*Embedding, error) {
	return frt.SampleOnGraph(g, par.NewRNG(seed), nil)
}

// SampleTreeExact draws one FRT tree of g's exact metric (solving APSP
// first): the simple Θ(n²)-work baseline. Prefer SampleTree for large
// sparse graphs.
func SampleTreeExact(g *Graph, seed uint64) (*Embedding, error) {
	return frt.SampleExact(g, par.NewRNG(seed), nil)
}

// ApproxMetric computes a (1+o(1))-approximate true metric of g with
// constant-time query access (Theorem 6.1 of the paper). The returned
// matrix never underestimates distances and overestimates by at most the
// reported factor. It fails, naming the cap, when the oracle does not
// converge within its iteration cap.
func ApproxMetric(g *Graph, seed uint64) (*Matrix, float64, error) {
	res, err := metric.Approximate(g, par.NewRNG(seed), nil)
	if err != nil {
		return nil, 0, err
	}
	return res.Matrix, res.MaxRatio, nil
}

// Spanner computes a (2k−1)-spanner of g with O(k·n^{1+1/k}) expected
// edges (Baswana–Sen), the work/stretch trade-off knob of the paper's
// Corollary 7.11.
func Spanner(g *Graph, k int, seed uint64) *Graph {
	return spanner.Build(g, k, par.NewRNG(seed), nil)
}

// KMedianResult is a k-median solution.
type KMedianResult = kmedian.Result

// SolveKMedian computes an expected O(log k)-approximate k-median solution
// of g (Theorem 9.2 of the paper).
func SolveKMedian(g *Graph, k int, seed uint64) (*KMedianResult, error) {
	return kmedian.Solve(g, k, kmedian.Options{RNG: par.NewRNG(seed)})
}

// Demand routes Amount units of flow from S to T (buy-at-bulk).
type Demand = buyatbulk.Demand

// CableType is a buy-at-bulk cable: capacity and cost per unit edge weight.
type CableType = buyatbulk.CableType

// BuyAtBulkSolution is a priced buy-at-bulk network design.
type BuyAtBulkSolution = buyatbulk.Solution

// SolveBuyAtBulk computes an expected O(log n)-approximate buy-at-bulk
// network design (Theorem 10.2 of the paper).
func SolveBuyAtBulk(g *Graph, demands []Demand, cables []CableType, seed uint64) (*BuyAtBulkSolution, error) {
	return buyatbulk.Solve(g, demands, cables, buyatbulk.Options{RNG: par.NewRNG(seed)})
}

// Generators, re-exported for examples and experiments.
var (
	// PathGraph returns an n-node path with uniform edge weight.
	PathGraph = graph.PathGraph
	// CycleGraph returns an n-node unit-weight cycle.
	CycleGraph = graph.CycleGraph
	// GridGraph returns a rows×cols grid with weights in [1, maxWeight].
	GridGraph = graph.GridGraph
	// RandomConnected returns a connected graph with n nodes and m edges.
	RandomConnected = graph.RandomConnected
	// RandomGeometric returns a connected random geometric graph.
	RandomGeometric = graph.RandomGeometric
	// Clustered returns k well-separated random clusters.
	Clustered = graph.Clustered
	// Lollipop returns a clique joined to a long path (high SPD).
	Lollipop = graph.Lollipop
	// BarabasiAlbert returns a preferential-attachment (power-law) graph.
	BarabasiAlbert = graph.BarabasiAlbert
)

// ExactAPSP solves all-pairs shortest paths exactly (one Dijkstra per
// node). Useful as ground truth when evaluating embeddings.
func ExactAPSP(g *Graph) *Matrix { return graph.APSPDijkstra(g) }

// Stretch evaluates an embedding sampler on random node pairs; see
// MeasureStretch in the frt package for the field semantics.
type Stretch = frt.StretchStats

// MeasureStretch samples `trees` embeddings via sampler and measures their
// stretch on `pairs` random node pairs of g.
func MeasureStretch(g *Graph, sampler func() (*Embedding, error), trees, pairs int, seed uint64) (Stretch, error) {
	return frt.MeasureStretch(g, sampler, trees, pairs, par.NewRNG(seed))
}

// Ensemble is a set of independent FRT embeddings used as a one-sided
// approximate distance oracle (take the minimum estimate over trees; it
// never under-estimates).
type Ensemble = frt.Ensemble

// EnsembleStats summarises an ensemble's Min estimator against exact
// distances (see frt.EnsembleStats for field semantics).
type EnsembleStats = frt.EnsembleStats

// OracleIndex is the batched query service over an ensemble: trees are
// preprocessed into flat level-ancestor and prefix-weight tables so Min
// costs O(trees · log depth) array lookups, and MinBatch/MedianBatch
// answer pair slices in parallel. Obtain one from (*Ensemble).Index().
type OracleIndex = frt.OracleIndex

// Pair is a distance-query pair for the batched oracle APIs.
type Pair = frt.Pair

// SnapshotMeta records the provenance of a serialised ensemble (the shape
// of the graph it was sampled from).
type SnapshotMeta = frt.SnapshotMeta

// WriteSnapshot serialises a built ensemble into the versioned binary
// snapshot format served by `parmbfd -load`: a section-table header, flat
// per-tree arrays, and a whole-file checksum. Reloading it and indexing
// yields bitwise-identical query answers.
func WriteSnapshot(w io.Writer, ens *Ensemble, meta SnapshotMeta) error {
	return frt.WriteSnapshot(w, ens, meta)
}

// ReadSnapshot parses and validates a snapshot produced by WriteSnapshot.
// Corrupt or hostile input is rejected with an error — never a panic or an
// allocation proportional to unvalidated header counts.
func ReadSnapshot(data []byte) (*Ensemble, SnapshotMeta, error) {
	return frt.ReadSnapshot(data)
}

// WriteSnapshotFile atomically writes a snapshot file (temp file + rename).
func WriteSnapshotFile(path string, ens *Ensemble, meta SnapshotMeta) error {
	return frt.WriteSnapshotFile(path, ens, meta)
}

// ReadSnapshotFile reads and validates a snapshot file.
func ReadSnapshotFile(path string) (*Ensemble, SnapshotMeta, error) {
	return frt.ReadSnapshotFile(path)
}

// Embedder runs the tree-independent pipeline stages (hop set, simulated
// graph H, oracle) once per graph and then draws any number of FRT trees
// against them — the efficient way to sample ensembles. Trees within one
// SampleEnsemble call are drawn concurrently, and a fixed seed yields the
// identical ensemble for every parallelism setting.
type Embedder = frt.Embedder

// NewEmbedder builds the shared sampling pipeline for g.
func NewEmbedder(g *Graph, seed uint64) (*Embedder, error) {
	return frt.NewEmbedder(g, frt.Options{RNG: par.NewRNG(seed)})
}

// SampleEnsemble draws `count` independent trees from the FRT distribution
// of g via the oracle pipeline, sharing the hop-set and H construction
// across trees and sampling them concurrently.
func SampleEnsemble(g *Graph, count int, seed uint64) (*Ensemble, error) {
	e, err := NewEmbedder(g, seed)
	if err != nil {
		return nil, err
	}
	return e.SampleEnsemble(count)
}

// CongestResult is the outcome of a simulated distributed (Congest-model)
// LE-list computation: lists, the random order, and the round count.
type CongestResult = congest.Result

// DistributedFRT simulates the distributed tree-embedding computation of §8
// of the paper in the Congest model, running both the Khan et al. per-hop
// algorithm and the skeleton-based algorithm and returning whichever needed
// fewer rounds (Theorem 8.1's min{·,·} bound). Build the tree from the
// result with BuildTreeFromLists.
func DistributedFRT(g *Graph, seed uint64) *CongestResult {
	return congest.BestOfBoth(g, par.NewRNG(seed))
}

// DistributedKhan simulates only the Khan et al. algorithm (O(SPD·log n)
// rounds).
func DistributedKhan(g *Graph, seed uint64) *CongestResult {
	return congest.Khan(g, par.NewRNG(seed))
}

// DistributedSkeleton simulates only the skeleton-based algorithm
// (≈ Õ(√n + D) rounds, stretch bound 2k−1 on top of the FRT stretch).
func DistributedSkeleton(g *Graph, seed uint64) *CongestResult {
	return congest.Skeleton(g, par.NewRNG(seed), congest.SkeletonOptions{})
}

// BuildTreeFromLists assembles the FRT tree encoded by LE lists (e.g. from
// a CongestResult) with the scale β drawn from the given seed.
func BuildTreeFromLists(res *CongestResult, seed uint64) (*Tree, error) {
	return frt.BuildTree(res.Lists, res.Order, frt.RandomBeta(par.NewRNG(seed)))
}

// SteinerResult is a Steiner tree: a subgraph of G spanning the terminals.
type SteinerResult = steiner.Result

// SolveSteiner computes an expected O(log n)-approximate Steiner tree via a
// sampled FRT embedding — the extension application motivated by the
// paper's introduction ("a plethora of Steiner-type problems").
func SolveSteiner(g *Graph, terminals []Node, seed uint64) (*SteinerResult, error) {
	return steiner.Solve(g, terminals, steiner.Options{RNG: par.NewRNG(seed)})
}

// SteinerBaseline computes the classic 2-approximate Steiner tree (MST of
// the terminals' metric closure).
func SteinerBaseline(g *Graph, terminals []Node) (*SteinerResult, error) {
	return steiner.MetricClosureMST(g, terminals)
}

// KMedianAssignment maps every node of g to its serving center (nearest
// member of centers).
func KMedianAssignment(g *Graph, centers []Node) []Node {
	return kmedian.Assignment(g, centers)
}

// RoutingTables holds oblivious-routing state over a tree ensemble: shared
// next-hop tables toward every cluster center plus an OracleIndex over the
// trees. Build once, answer any demand pair without seeing the others.
type RoutingTables = routing.Tables

// RouteResult is one routed pair: the walked path in G, its length, and the
// tree-distance certificate it stays under.
type RouteResult = routing.RouteResult

// BuildRoutingTables samples FRT trees of g and precomputes the
// oblivious-routing tables (expected O(log n) stretch per routed pair).
func BuildRoutingTables(g *Graph, trees int, seed uint64) (*RoutingTables, error) {
	return routing.Build(g, routing.Options{RNG: par.NewRNG(seed), Trees: trees})
}

// ValidateRoute audits one routed pair against g: endpoints, every hop a
// real edge, exact length accounting, and the tree-distance certificate
// (length at most 1.5× the tree distance; see routing.CertificateFactor).
func ValidateRoute(g *Graph, u, v Node, r *RouteResult) error {
	return routing.Validate(g, u, v, r)
}
