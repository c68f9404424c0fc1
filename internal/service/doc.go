// Package service is the multi-tenant serving layer over the fully dynamic
// DFS maintainer: one Service owns many independent graph instances and
// serves concurrent read queries against them while updates stream in.
//
// Every graph's maintainer runs the SubtreeDFS executor, which finds the
// deepest edges of the Section 3 reduction from the updated graph's rows
// (it walks up from low, and falls back to scanning T(sub)'s rows) and
// reroots with a static DFS, so the serving path builds and
// maintains no D: not at creation, not on recovery or migration, not after
// an update. The maintainers' D() is nil.
//
// # Shard routing
//
// A Service runs a fixed set of shards. Each shard owns one goroutine (the
// update loop), one accounting-only pram.Machine (the merged PRAM costs of
// everything that runs on the shard), and the maintainers of every graph
// assigned to it. A graph ID is hashed (FNV-1a) to pick its shard at
// creation, and at any moment exactly one shard owns the graph, so all
// updates for one graph are serialized through one mailbox — a buffered
// channel of tasks — without any per-graph locking. Ownership is not fixed
// for life, though: an explicit routing table can move a graph to any shard
// while it serves (see Routing and migration). Every write is a mailbox
// round: Apply enqueues a round of one update and returns a Future;
// ApplyBatch groups a cross-graph batch by shard and enqueues one round per
// shard, so k updates cost each shard one mailbox receive instead of k. The
// shard loop runs every round the same way — apply and log each entry in
// order, one WAL commit, one publish per touched graph, then resolve each
// future against its graph's round-final snapshot.
//
// # Routing and migration
//
// Shard resolution is a two-level lookup: an explicit routing table — a
// copy-on-write map[GraphID]*shard behind an atomic pointer, holding only
// the exceptions — consulted first, the FNV-1a hash as the default for
// every ID not in it. The read path (every submit and every read resolves
// through shardFor) is one atomic load plus one map probe: lock-free and
// allocation-free, pinned by TestRoutingLookupNoAllocs and
// BenchmarkRoutingLookup. Writers copy the map under a mutex and publish
// the replacement with a single store.
//
// MigrateGraph moves a graph between shards live, in four steps, each a
// task on the owning shard's own loop:
//
//  1. Freeze (source loop): take the graph's checkpoint value at its
//     current sequence and write it — mandatory when a WAL is configured,
//     because after the handoff the source's log rotations stop
//     re-checkpointing this graph — then mark it migrating, so tasks
//     arriving behind the freeze park in a deferred queue instead of
//     applying. The package is that checkpoint value (persistent graph,
//     tree, pseudo root, sequence; zero-copy) plus the tenant meter.
//  2. Install (destination loop): restore the maintainer from the
//     package's checkpoint, exactly as recovery restores one, and publish
//     its snapshot. The copy is invisible — routing still points at the
//     source, which keeps answering reads.
//  3. Commit: append a RouteRecord to the durable route log (routes.wal,
//     fsynced) and flip the routing table. The fsynced record is the
//     migration's commit point: recovery after a crash strictly before it
//     places the graph on the source (checkpoint + logged tail), strictly
//     after it on the destination (the logged route reroutes the global
//     recovery scan) — on exactly one shard either way, with no acked
//     update lost or doubled. TestCrashRecoveryKill9's second epoch kills
//     a service mid-migration-storm and proves exactly that.
//  4. Complete (source loop): retire the source copy and replay the parked
//     tasks to the destination in order; the tenant's attribution meter
//     follows the graph. Query handles do not: the destination publishes
//     its own snapshots, and each builds its bicon index on first query.
//
// Writers observe a migration as latency, never as errors: a synchronous
// writer (one update in flight, awaiting each ack) sees its updates apply
// in submission order throughout, while a writer pipelining many futures
// may see tasks parked at the freeze complete after tasks it submitted to
// the destination post-flip — the same reordering any cross-shard batch
// already exhibits. Tasks that race a flip and land on a shard that no
// longer owns the graph re-resolve the routing table and forward
// themselves (bounded by a hop cap); reads that miss the same window chase
// the route the same way. The per-handoff write pause (freeze to flip) is
// recorded in Metrics.MigrationPauseHist, alongside Migrations,
// MigrationFailures, RoutedGraphs, and per-shard in/out counters — all of
// it also in the Prometheus exposition.
//
// # Snapshot isolation
//
// Readers never touch a maintainer. Once per touched graph per round (so
// after every Apply) the shard loop publishes an immutable Snapshot —
// the current DFS tree, the current graph version, and the update's cost
// counters — through an atomic pointer. Tree, IsAncestor, Path, Verify and
// Snapshot load that pointer and work on the frozen pair, so reads never
// block the update loop, never observe a half-applied update, and remain
// valid indefinitely.
//
// Publication is O(1) regardless of graph size. Both published structures
// are persistent: the tree because the maintainer builds a fresh, immutable
// tree for every update, and the graph because the maintainer mutates a
// graph.Persistent — a path-copying adjacency whose every update produces a
// new version sharing all untouched neighbor rows with its predecessors.
// Freezing either is a pointer grab (core.DynamicDFS.Frozen); there is no
// per-vertex or per-edge clone on the write path, and a retained Snapshot
// keeps its exact edge set forever because later updates copy away from
// published rows instead of writing into them (BenchmarkPublish pins the
// flat cost; TestServiceSnapshotLongevity pins the sharing guarantee).
//
// # Read path: the snapshot analytics engine
//
// Beyond the raw snapshot reads (Tree, IsAncestor, Path, Verify), Query
// returns a version-pinned QueryHandle — the snapquery analytics engine —
// answering LCA, KthAncestor/AncestorAtDepth, SubtreeSize/SubtreeAgg,
// TreePath, and the biconnectivity family (IsArticulation, Bridges,
// BiconnectedComponentOf, SameBiconnectedComponent) from the pinned
// snapshot's tree and one derived index, the biconnectivity analysis.
//
// The LCA index is part of the tree (the paper's Theorem 5/6 structure):
// every snapshot's Tree, the degraded checkpoint snapshots recovery
// publishes included, builds its own on its first LCA or level-ancestor
// query, once, under a sync.Once. The update path of the default executor
// never asks, so it never builds one. A back-edge update keeps the tree, so
// consecutive back-edge versions share one index. The version's query
// handle answers the LCA family and the level ancestors (through
// tree.AncestorAtDepth, an O(log n) search over the same block minima)
// from it. SubtreeAgg scans v's pre-order window, O(|T(v)|), and TreePath
// climbs both ends by level, O(path); neither builds an index. The handle
// builds only the biconnectivity analysis, once per version on first use.
// CheckSynced checks that the published
// snapshot's graph and tree are the maintainer's own (by pointer) and runs
// the maintainer's oracle on them: the tree is a DFS forest of the graph,
// and its index equals a fresh derivation from its numbering.
//
// Index sharing and lifetime guarantees:
//
//   - One handle per version, owned by its snapshot. The first Query or
//     QuerySnapshot on a snapshot creates its *QueryHandle and installs it
//     in the snapshot with a compare-and-swap; readers racing on that
//     first call adopt the winner's handle, and every later call is one
//     atomic load. So the bicon index is built at most once per version:
//     the first readers to need it share a single build under a sync.Once,
//     and every later query reads it with zero construction and zero
//     allocation (BenchmarkSnapshotQuery pins the warm path at ≤1 alloc
//     and the cold/warm gap at ≥100×).
//   - Handles are independent. A handle holds its own version's graph,
//     tree and index and no reference to any other version's handle, so
//     dropping or migrating a graph never affects a handle handed out.
//   - A QueryHandle pins exactly one version. Later updates never change
//     its answers (the pinned graph and tree are persistent; updates
//     path-copy away from them), so a handle obtained before k further
//     updates still answers for its original version, consistent with the
//     Snapshot it came from; QuerySnapshot on that retained Snapshot
//     returns the same handle, with no rebuild.
//   - A handle lives exactly as long as its snapshot. No cache holds
//     handles, so nothing retains an old version's index once its snapshot
//     is unreachable, and nothing has to be purged on DropGraph or moved on
//     MigrateGraph: a graph re-created under a dropped ID, or installed on
//     another shard, publishes new snapshots whose handles pin its own
//     trees, and each builds its bicon index on its first query.
//
// # Observability
//
// The serving stack instruments itself with the dependency-free primitives
// of internal/obs; everything below samples atomics and read locks only,
// so observing the service never blocks an update loop.
//
// Metrics returns one consistent sample of every shard: queue depth and
// capacity plus the sampler-window high-water mark (the deepest the
// mailbox has been in the current or last completed sampler window — a
// burst that arrived and drained between two polls is still visible),
// applied/rejected counts, the windowed update rate, snapshot staleness,
// and the shard machine's PRAM depth/work accounting. Metrics is a pure
// read: every rate derives from monotonic cumulative counters cut into
// windows by the background sampler (below), never from read-and-reset
// state, so any number of concurrent or interleaved pollers — humans with
// curl, a Prometheus scraper, the dfsload reporter — observe identical,
// non-interfering values (TestMetricsConcurrentPollers pins this under
// -race).
//
// The sampler is one goroutine per Service. Every Config.SampleInterval it
// cuts a window at a common instant across all shards: it snapshots each
// shard's cumulative counters into a fixed-size ring
// (Config.SampleWindows, default 256), computes the windowed apply and
// WAL-sync p99 by histogram subtraction, and rolls the queue high-water
// mark over. History returns the retained per-shard time-series — update
// and reject rates, queue depth and high-water, windowed p99s, WAL
// throughput, oldest point first — so a regression is visible in-process
// without any external scrape infrastructure. Close stops the sampler
// before the shards drain.
//
// Cost is attributed per tenant, not just per shard. Every graph carries
// an obs.TenantMeter — applied/rejected updates, apply/engine/dmaint
// wall-clock, WAL bytes appended, snapquery index builds, all
// single-writer or reader-side atomics — sampled lock-free by
// TenantMetrics. Because "millions of graphs" rules out iterating meters
// to find the expensive ones, each shard also feeds a bounded Space-Saving
// sketch (obs.SpaceSaving) with every update's apply nanoseconds; HotGraphs
// merges the per-shard sketches into the k most expensive graphs, hottest
// first, each with its exact meter sample and the sketch's error bound.
// The ranking names the tenant that is 90% of a saturated shard's load;
// MigrateGraph is the lever that moves it, or its neighbours, elsewhere.
//
// Latency ships as lock-free log-bucketed histograms (obs.Histogram):
// maintainer apply time, mailbox wait, snapshot publish, batch-round size
// on the write path; index build and handle resolution on the read path
// (alongside the read-path counters: IndexCacheHits and IndexCacheMisses,
// resolutions that found the snapshot's handle or installed it, and
// IndexBuilds). Per-shard snapshots merge exactly, and the
// aggregate Metrics carries that merge plus a cumulative StageTimes
// breakdown of where the update loops' wall-clock went.
//
// Every applied update is traced stage by stage (obs.Trace: mailbox wait →
// plan → reroot engine → D maintenance → publish, with outcome tags, delta
// sizes and PRAM costs; the five stages are disjoint and sum to the
// trace's total; a graph's publish span goes on its last applied entry of
// the round, so stage time and the publish histogram count each publish
// once). With no D to maintain, the D-maintenance stage is about zero and
// every applied update's outcome tag is "none". Each shard retains its
// Config.SlowTraces slowest updates in a lock-free-admission ring;
// SlowTraces returns the merged slowest-first view.
//
// DebugHandler serves all of it over HTTP — /debug/service (metrics +
// traces as JSON), /debug/service/tenants (the HotGraphs ranking),
// /debug/service/history (the sampler's time-series), /debug/metrics
// (Prometheus text exposition, format v0.0.4, written with the stdlib-only
// obs.PromWriter: shard gauges and counters labeled by shard, stage times,
// WAL counters, read-path counters, and the obs histograms as native
// Prometheus histograms — the power-of-2 buckets map directly to le
// bounds; per-tenant data stays on the JSON endpoints because unbounded
// tenant IDs do not belong in label sets) and /debug/pprof — so a running
// service (e.g. dfsload -debugaddr) can be inspected with curl alone.
// During WAL recovery, Metrics and /debug/service also report replay
// progress (graphs recovered / total, records replayed), so degraded-mode
// reads are diagnosable while the backlog drains.
//
// # Stats threading
//
// Snapshot isolation is only sound because nothing a snapshot points at is
// written after it is published: the graph is persistent, every update
// builds a fresh tree, and the planner's deepest-edge search (its walk up
// from low and its fallback scan of T(sub)'s rows) only reads both. D, on
// the maintainers that keep one, follows the same rule: every
// EdgeToWalk-family call threads a caller-supplied per-call *dstruct.Stats
// accumulator instead of mutating shared state on D, and the engine rolls
// it into the maintainer per update. On the service's maintainers, which
// query no D, that total stays zero. Concurrent readers of one published
// structure therefore need no synchronization at all.
//
// # Durability
//
// With Config.WAL set (use Open, not New, to surface recovery errors) each
// shard appends every accepted update to its own write-ahead log before the
// update is acknowledged or its snapshot published: a durably acked update
// is on disk, and a reader can never observe state that a crash could roll
// back. Records are length-prefixed, CRC32C-framed (internal/wal), so a
// torn tail — the expected shape of a kill -9 or power cut mid-append — is
// detected by framing alone and recovery keeps the clean prefix; a record
// too large for the frame bound is rejected before any byte is written
// (wal.ErrTooLarge), so an un-replayable record can never be acknowledged.
// Open also takes an exclusive lock on the directory (flock on wal.lock,
// wal.ErrLocked when held), so two services can never interleave appends
// into the same shard logs; the kernel drops the lock with the process, so
// a kill -9 never wedges the successor's recovery.
//
// Fsync cost is a policy, not a constant. SyncAlways pays one fsync per
// record (strongest, slowest); SyncBatch — the default — group-commits one
// fsync per mailbox round, so a k-update batch amortizes the disk barrier
// k ways while keeping the append-before-ack ordering (BenchmarkWALAppend
// pins the amortization); SyncInterval bounds the unsynced window by time
// for workloads that accept losing the last interval on power failure
// (kill -9 loses nothing under any policy: the page cache survives the
// process). A WAL I/O error fail-stops the shard's write path — updates
// are rejected with the sticky error, nothing further is acked — rather
// than risk acking updates that hit a sequence hole; reads keep serving
// the last published snapshots.
//
// Checkpoints bound both log growth and recovery time: every
// Config.WAL.CheckpointEvery applied updates the shard serializes each of
// its graphs' published persistent graph + tree (temp file, fsync, rename)
// and truncates its log; a graph's creation writes its version-0
// checkpoint before CreateGraph acknowledges, so a graph exists durably
// iff its checkpoint does. DropGraph deletes the checkpoints first and
// then rotates the log, so a same-ID re-creation can never replay records
// from a dead incarnation (a crash between the two steps leaves orphan
// records that recovery counts and skips).
//
// Recovery (Open with a non-empty WAL directory) is torn-tail tolerant
// and shard-count independent: the routing table is restored first from
// the route log (last record per graph wins, entries without a checkpoint
// fold away, the survivors are compacted back), then all update logs are
// scanned globally, records are rerouted to the current shard mapping —
// logged routes included — per-graph tails are ordered by sequence number, and anything at or below the checkpoint's sequence is
// skipped while a genuine gap fails loudly (ErrCorrupt) instead of
// silently diverging. In the spirit of the paper's fault-tolerant model
// (Theorem 14) — serve from the preprocessed structure while updates are
// reapplied — recovered graphs serve degraded reads immediately: their
// checkpoint snapshots are published before the shard loops start, reads
// and analytics queries answer from them while each shard replays its
// tail through the normal maintainer apply path, and the flip from
// degraded to live is one atomic snapshot publication per graph
// (Recovering / WaitRecovered expose the transition; a post-recovery
// checkpoint then re-truncates the logs so restart cost does not
// accumulate). When the shard count changed, an inherited log file can
// hold the only durable copy of tails for graphs rerouted to other shards:
// its truncation is deferred until every shard has recovered and
// re-checkpointed (the recovery barrier), so no crash window can roll a
// rerouted graph back behind its acknowledged tail — until then replay
// simply skips the checkpoint-covered prefix. Crash-injection hooks
// (wal.Injector: fail or shorten the
// Nth write, fail the Nth fsync) drive the fault-path tests, and the
// process-level harness (cmd/dfsload -wal -acklog, TestCrashRecoveryKill9
// and the CI crash-recovery job) kills a loaded service with SIGKILL and
// proves the replayed state matches the pre-crash durably-acked state by
// edge-set equality plus CheckSynced.
//
// # Lifecycle
//
// Close drains: new submissions are rejected, every task already in a
// mailbox is processed and its Future resolved, then the shard goroutines
// exit. Reads keep working after Close (snapshots are retained).
// CloseContext is the deadline-bounded variant: a wedged or backlogged
// shard past the deadline yields a *ShutdownError naming each undrained
// shard with its queue depth (and unwrapping to the context's error)
// instead of hanging; the shards keep draining in the background.
package service
