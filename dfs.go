// Package dfs is a Go implementation of "Near Optimal Parallel Algorithms
// for Dynamic DFS in Undirected Graphs" (Shahbaz Khan, SPAA 2017,
// arXiv:1705.03637).
//
// Given an undirected graph subject to an online sequence of edge/vertex
// insertions and deletions, the library maintains a depth-first-search tree
// across updates using the paper's parallel rerooting procedure: each
// update is reduced to rerooting disjoint subtrees (Section 3), and each
// rerooting runs in O(log² n) rounds of batched independent queries on the
// data structure D (Sections 4–5), for O(log³ n) EREW-PRAM time per update.
//
// Four execution models are provided, mirroring the paper's results:
//
//   - Maintainer — fully dynamic DFS (Theorem 13): O(log³ n) model depth
//     per update on m processors under the Parallel executor. By default
//     (SubtreeDFS) each reroot is instead one static DFS of the rerooted
//     subtree, O(|T(r)| + m(T(r))) with no D query and no D kept at all:
//     the faster choice on few cores, and what Service runs.
//     Options.Executor selects.
//   - FaultTolerant — preprocess once, answer any batch of k updates
//     without rebuilding D (Theorem 14).
//   - Streaming — semi-streaming maintenance with O(n) resident words and
//     O(log² n) passes per update (Theorem 15).
//   - Distributed — synchronous CONGEST(n/D) maintenance with O(D log² n)
//     rounds per update (Theorem 16), on a discrete-event network cost
//     simulator.
//
// Every produced tree satisfies the DFS property (all non-tree edges are
// back edges), checkable with Verify. PRAM costs (depth/work) are recorded
// analytically by the Machine attached to each maintainer; wall-clock
// performance is measured by the repository's benchmarks.
//
// # Serving layer
//
// On top of the single-tenant maintainers, Service is a sharded,
// snapshot-isolated serving layer for multi-graph traffic: it owns many
// graph instances, hashes each GraphID to a shard (one update-loop
// goroutine plus one Machine per shard), and serializes each graph's
// updates through the shard's buffered mailbox. Apply returns a Future;
// ApplyBatch coalesces a cross-graph batch into one mailbox round per
// shard.
//
// Reads are snapshot-isolated: after every update the shard publishes an
// immutable GraphSnapshot (persistent DFS tree + persistent copy-on-write
// graph version + cost counters) through an atomic pointer, and Tree /
// IsAncestor / Path / Verify answer from the latest snapshot without ever
// blocking the update loop or observing a half-applied update. Publication
// is O(1) — both structures are shared with the maintainer zero-copy — and
// a snapshot, once obtained, stays valid indefinitely. This is sound
// because updates path-copy away from published state and D's query path is
// read-only — search-effort counters go to per-call QueryStats
// accumulators, not shared state — so published structures need no reader
// synchronization.
//
// # Snapshot analytics
//
// Service.Query turns the maintained DFS tree into a queryable product:
// it returns a version-pinned QueryHandle answering LCA, k-th/level
// ancestors, subtree aggregates, tree paths, and biconnectivity queries
// (articulation points, bridges, component IDs). Subtree aggregates and
// tree paths scan the pinned tree; the biconnectivity analysis is built at
// most once per snapshot version under a sync.Once and kept on the
// snapshot's own handle as long as the snapshot lives, so warm queries do
// zero index construction. The
// LCA index, which also answers the level ancestors, is part of the DFS
// tree itself, built once by the first such query on a tree and shared by
// every version that keeps that tree; the update path never builds it.
// NewSnapshotQuery is the standalone equivalent for any frozen graph+tree
// pair.
//
// # Observability
//
// Service.Metrics samples per-shard operational counters with lock-free
// log-bucketed latency histograms (update apply, mailbox wait, snapshot
// publish, batch size, index build, query resolution) and a
// cumulative stage-time breakdown of the update loops; Service.SlowTraces
// returns the slowest retained per-update stage traces. Metrics is a pure
// read: rates derive from monotonic cumulative counters cut into windows by
// a background sampler (ServiceConfig.SampleInterval), so any number of
// concurrent pollers observe identical, non-interfering values, and the
// sampler's ring buffers give every shard a scrape-independent time-series
// (Service.History). Cost is attributed per tenant: every graph carries a
// TenantMeter (applied/rejected updates, apply/engine/dmaint time, WAL
// bytes, index builds — Service.TenantMetrics), and a per-shard
// Space-Saving sketch ranks the most expensive graphs with bounded memory
// (Service.HotGraphs). Service.DebugHandler serves all of it — metrics,
// tenants, history, slow traces, a Prometheus text exposition at
// /debug/metrics and pprof — as a live HTTP debug endpoint
// (cmd/dfsload mounts it under -debugaddr). Tracing is nil-gated in the
// maintainer, so single-tenant users pay nothing.
package dfs

import (
	"repro/internal/baseline"
	"repro/internal/bicon"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/dstruct"
	"repro/internal/faulttol"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/reroot"
	"repro/internal/service"
	"repro/internal/snapquery"
	"repro/internal/stream"
	"repro/internal/tree"
	"repro/internal/verify"
	"repro/internal/wal"
)

// Sentinel errors of the serving layer, matchable with errors.Is against
// any error the Service returns (wrapped errors carry the graph ID).
var (
	// ErrClosed reports a submission to a closed (or closing) Service.
	ErrClosed = service.ErrClosed
	// ErrUnknownGraph reports an operation on a GraphID the Service does
	// not hold.
	ErrUnknownGraph = service.ErrUnknownGraph
	// ErrGraphExists reports CreateGraph on an already-registered GraphID.
	ErrGraphExists = service.ErrGraphExists
)

// Graph is an immutable simple undirected graph with stable vertex IDs.
// Each update (InsertEdge, DeleteEdge, InsertVertex, DeleteVertex) returns
// a new version sharing all untouched adjacency rows with its predecessor,
// so g, err = g.InsertEdge(u, v) keeps a local copy current. Constructors
// share the Graph they are given instead of copying it; Maintainer.Graph,
// GraphSnapshot.Graph and FaultTolerantResult.Graph return versions that
// are safe to read concurrently and to retain across any number of later
// updates.
type Graph = graph.Persistent

// Edge is an undirected edge.
type Edge = graph.Edge

// Tree is an immutable rooted tree with DFS numbering.
type Tree = tree.Tree

// None marks the absence of a vertex (the root's parent).
const None = tree.None

// Update describes one graph update.
type Update = core.Update

// Update kinds.
const (
	InsertEdge   = core.InsertEdge
	DeleteEdge   = core.DeleteEdge
	InsertVertex = core.InsertVertex
	DeleteVertex = core.DeleteVertex
)

// Stats reports a rerooting's traversal behaviour.
type Stats = reroot.Stats

// Machine is the EREW PRAM cost accountant.
type Machine = pram.Machine

// Maintainer is the fully dynamic DFS algorithm (Theorem 13). Its D method
// returns the query structure D for the Parallel and Sequential executors
// and nil under SubtreeDFS, which builds no D: it finds deepest edges from
// the graph's rows, walking up from low and falling back to scanning
// T(sub)'s rows.
type Maintainer = core.DynamicDFS

// Options configure a Maintainer.
type Options = core.Options

// Executor selects how a Maintainer runs each rerooting step
// (Options.Executor).
type Executor = core.Executor

// Rerooting executors. SubtreeDFS, the zero value, is what NewMaintainer
// and the Service run; Parallel is the paper's Section 4 engine, whose
// costs the PRAM model columns report; Sequential is the Baswana et al.
// baseline.
const (
	SubtreeDFS = core.SubtreeDFS
	Parallel   = core.Parallel
	Sequential = core.Sequential
)

// FaultTolerant is the preprocess-once structure of Theorem 14.
type FaultTolerant = faulttol.FaultTolerant

// FaultTolerantResult is one batch's outcome.
type FaultTolerantResult = faulttol.Result

// Streaming is the semi-streaming maintainer of Theorem 15.
type Streaming = stream.Maintainer

// Distributed is the CONGEST(B) maintainer of Theorem 16.
type Distributed = distributed.Maintainer

// Network is the CONGEST cost simulator.
type Network = distributed.Network

// D is the paper's query structure (Theorems 8–9), exposed for advanced
// use (custom rerooting drivers).
type D = dstruct.D

// QueryStats aggregates D-query search effort. Queries thread a per-call
// accumulator (D itself is read-only under queries); maintainers roll the
// per-update accumulators into a running total.
type QueryStats = dstruct.Stats

// Service is the sharded, snapshot-isolated multi-graph serving layer.
type Service = service.Service

// ServiceConfig sizes a Service (shards, mailbox depth, observability
// rings, WAL).
type ServiceConfig = service.Config

// GraphID names one tenant graph of a Service.
type GraphID = service.GraphID

// GraphSnapshot is one graph's immutable published state.
type GraphSnapshot = service.Snapshot

// UpdateFuture is a pending asynchronous update submission.
type UpdateFuture = service.Future

// BatchItem is one update of a cross-graph ApplyBatch.
type BatchItem = service.BatchItem

// ServiceMetrics / ServiceShardMetrics are the serving layer's sampled
// operational counters.
type ServiceMetrics = service.Metrics

// ServiceShardMetrics is one shard's sample within ServiceMetrics.
type ServiceShardMetrics = service.ShardMetrics

// TenantMetrics is one graph's cumulative cost attribution — applied and
// rejected updates, apply/engine/dmaint wall-clock, WAL bytes appended,
// index builds — sampled lock-free by Service.TenantMetrics.
type TenantMetrics = service.TenantMetrics

// TenantCounters is the raw counter sample embedded in TenantMetrics.
type TenantCounters = obs.TenantCounters

// HotGraph is one entry of Service.HotGraphs, the hottest-graphs ranking
// merged from the per-shard Space-Saving sketches: the sketch's estimated
// cumulative apply cost (with its bounded overestimation) plus the graph's
// exact TenantMetrics sample.
type HotGraph = service.HotGraph

// ServiceHistory is the sampler's retained time-series (Service.History):
// per-shard ring buffers of update/reject rates, queue depth and
// high-water, windowed apply p99, and WAL throughput, oldest point first.
type ServiceHistory = service.History

// ServiceShardHistory is one shard's series within ServiceHistory.
type ServiceShardHistory = service.ShardHistory

// ServiceHistoryPoint is one sampled window of a shard's series.
type ServiceHistoryPoint = service.HistoryPoint

// HistogramSnapshot is an immutable sample of a lock-free log-bucketed
// latency histogram: exact count/sum/max plus estimated quantiles
// (Quantile, Mean), mergeable across shards (Merge). ServiceMetrics carries
// these for the update, wait, publish, batch-size and index read paths.
type HistogramSnapshot = obs.HistSnapshot

// UpdateTrace is one update's stage-timed journey through the serving
// stack (mailbox wait → plan → reroot engine → D maintenance → snapshot
// publish) with outcome tags. Each shard retains its slowest
// ServiceConfig.SlowTraces of them, exposed by Service.SlowTraces and the
// debug endpoint.
type UpdateTrace = obs.Trace

// StageTimes is the cumulative per-stage wall-clock breakdown within
// ServiceMetrics: where the update loops' time actually went.
type StageTimes = service.StageTimes

// QueryHandle is the snapshot analytics engine's version-pinned handle:
// LCA, level/k-th ancestors, subtree aggregates, tree paths and the full
// biconnectivity family, answered from the pinned tree and one derived
// index (biconnectivity) built at most once per snapshot version. Obtain
// one from Service.Query / QuerySnapshot (the snapshot's own handle, made
// by its first query) or NewSnapshotQuery (standalone). A handle stays
// valid — and keeps answering for its pinned version — across any number
// of later updates and after its graph is dropped.
type QueryHandle = service.QueryHandle

// SubtreeAgg is the aggregate QueryHandle.SubtreeAgg reports over one
// subtree: size, height, and min/max vertex label.
type SubtreeAgg = snapquery.Agg

// FromEdges builds a graph on n vertices from an edge list. It rejects
// self-loops, duplicate edges and endpoints outside [0, n).
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// NewMaintainer builds the fully dynamic maintainer over g (retained,
// immutable), with the default SubtreeDFS executor, which keeps no D.
func NewMaintainer(g *Graph) *Maintainer { return core.NewFullyDynamic(g) }

// NewMaintainerWith builds a maintainer with explicit options (rerooting
// executor, custom machine, vertex-ID headroom).
func NewMaintainerWith(g *Graph, opt Options) *Maintainer { return core.New(g, opt) }

// Preprocess builds the fault-tolerant structure; maxUpdates bounds the
// batch size (the paper's k).
func Preprocess(g *Graph, maxUpdates int) *FaultTolerant {
	return faulttol.Preprocess(g, maxUpdates)
}

// WALConfig enables the serving layer's durability: a per-shard
// write-ahead log appended (and fsynced per policy) before updates are
// acknowledged, periodic checkpoints, and crash recovery with degraded
// snapshot reads while the log tail replays.
type WALConfig = service.WALConfig

// WALInjector is the crash-injection hook for durability testing: it
// counts WAL and checkpoint I/O operations and fails the Nth one.
type WALInjector = wal.Injector

// WAL fsync policies (WALConfig.Policy).
const (
	// WALSyncBatch fsyncs once per mailbox round — group commit (default).
	WALSyncBatch = wal.SyncBatch
	// WALSyncAlways fsyncs after every record.
	WALSyncAlways = wal.SyncAlways
	// WALSyncInterval fsyncs at most once per WALConfig.SyncInterval.
	WALSyncInterval = wal.SyncInterval
)

// ShutdownError reports a Service.CloseContext deadline expiring with
// shards still draining (it lists them with their queue depths).
type ShutdownError = service.ShutdownError

// NewService starts the multi-graph serving layer. It panics when
// cfg.WAL is set and recovery fails; durable services should use
// OpenService.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenService starts the serving layer, recovering durable state from
// cfg.WAL.Dir when durability is enabled: checkpointed graphs serve
// (degraded) snapshot reads immediately, log tails replay on the shard
// loops, and Service.WaitRecovered unblocks once every shard is live.
func OpenService(cfg ServiceConfig) (*Service, error) { return service.Open(cfg) }

// NewSnapshotQuery builds a standalone analytics handle over any frozen
// (graph, DFS tree) pair — a retained GraphSnapshot's fields, or a paused
// Maintainer's Graph/Tree/PseudoRoot. Each call makes a new handle; the
// serving layer's Service.Query returns the one handle a snapshot owns.
func NewSnapshotQuery(g *Graph, t *Tree, pseudoRoot int) *QueryHandle {
	return snapquery.New(g, t, pseudoRoot)
}

// NewStreaming builds the semi-streaming maintainer over g's edges.
func NewStreaming(g *Graph) *Streaming { return stream.New(g) }

// NewDistributed builds the CONGEST maintainer; b is the message size in
// words (0 selects the paper's n/D).
func NewDistributed(g *Graph, b int) *Distributed { return distributed.New(g, b) }

// StaticDFS computes a DFS tree of g with the classical O(m+n) algorithm
// under the pseudo-root convention (root ID = g.NumVertexSlots()).
func StaticDFS(g *Graph) *Tree { return baseline.StaticDFS(g) }

// Verify checks that t is a DFS tree of g under the pseudo-root convention
// used by the maintainers: nil means valid.
func Verify(g *Graph, t *Tree, pseudoRoot int) error {
	return verify.DFSForest(g, t, pseudoRoot)
}

// Biconnectivity is the articulation/bridge/biconnected-component analysis
// computed from a DFS tree (the classical DFS applications of the paper's
// introduction).
type Biconnectivity = bicon.Analysis

// AnalyzeBiconnectivity computes articulation points, bridges and
// biconnected components of g from its DFS tree t.
func AnalyzeBiconnectivity(g *Graph, t *Tree, pseudoRoot int) *Biconnectivity {
	return bicon.Analyze(g, t, pseudoRoot, nil)
}
