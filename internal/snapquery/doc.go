// Package snapquery is the snapshot analytics engine: a read-only query
// layer over one frozen (graph, DFS tree) pair — the state the serving
// layer publishes after every update — that memoizes the derived indexes
// classical DFS applications need instead of rebuilding them per query.
//
// A Handle pins exactly one snapshot version and answers from a bundle of
// indexes over it:
//
//   - the Euler-tour/block-RMQ LCA index of internal/lca (the paper's
//     Theorem 5/6 Schieber–Vishkin stand-in, the same structure the update
//     path queries) for LCA, SameComponent and TreePath, and for
//     KthAncestor / AncestorAtDepth through lca.Index.AncestorAtDepth, an
//     O(log n) search over the same block minima instead of the tree's
//     O(depth) parent walk;
//   - bottom-up subtree aggregates (height, min/max vertex label; size and
//     depth come free from the tree numbering) for SubtreeAgg;
//   - full biconnectivity analysis (internal/bicon: articulation points,
//     bridges, biconnected-component IDs of tree edges).
//
// The LCA index is normally not built here at all. The core maintainer
// already builds one for every tree it installs (D's embedded index), the
// serving layer publishes it with each snapshot, and New or Cache.Handle
// takes it as an argument: the handle answers the LCA family and level
// ancestors from it, so a first query on a freshly published version
// costs O(log n) and builds nothing. Given nil (a standalone tree, or the
// degraded checkpoint snapshots of WAL recovery), the handle builds its own
// on first use.
//
// The other indexes are built exactly once per handle under a singleflight
// guard: concurrent first readers share one build (one builds, the rest
// block on it), and every later reader takes a pure atomic pointer load.
// Because the underlying snapshot structures are persistent (updates
// path-copy away from them), index construction needs no synchronization
// with writers. Handles are independent of each other: a handle never
// refers to another version's handle or arrays.
//
// CheckSynced is the differential oracle: the handle's LCA index — the
// maintainer's, when it was given one — must equal a fresh lca.Build of the
// pinned tree, and its aggregates a fresh fold.
//
// Cache retains handles in an LRU keyed by (graph, version) so a bounded
// number of hot versions keep their indexes alive while old versions age
// out. Eviction never invalidates a held Handle — it only drops the cache's
// reference; readers still holding the handle keep querying it, exactly
// like a retained Snapshot.
package snapquery
