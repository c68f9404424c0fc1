// Package snapquery is the snapshot analytics engine: a read-only query
// layer over one frozen (graph, DFS tree) pair — the state the serving
// layer publishes after every update — that memoizes the derived indexes
// classical DFS applications need instead of rebuilding them per query.
//
// A Handle pins exactly one snapshot version and answers from a bundle of
// indexes over it:
//
//   - the pinned tree's own block-RMQ LCA index (package tree: the paper's
//     Theorem 5/6 Schieber–Vishkin stand-in, the same structure the update
//     path queries) for LCA, SameComponent and TreePath, and for
//     KthAncestor / AncestorAtDepth through tree.AncestorAtDepth, an
//     O(log n) search over the same block minima instead of an O(depth)
//     parent walk;
//   - bottom-up subtree aggregates (height, min/max vertex label; size and
//     depth come free from the tree numbering) for SubtreeAgg;
//   - full biconnectivity analysis (internal/bicon: articulation points,
//     bridges, biconnected-component IDs of tree edges).
//
// The LCA index is not the handle's: it belongs to the pinned tree, which
// builds it on its first LCA or level-ancestor query under a sync.Once
// (package tree), so handles of versions sharing one tree share one index,
// and the update path, which never asks, never builds one.
//
// The other indexes are built exactly once per handle under a singleflight
// guard: concurrent first readers share one build (one builds, the rest
// block on it), and every later reader takes a pure atomic pointer load.
// Because the underlying snapshot structures are persistent (updates
// path-copy away from them), index construction needs no synchronization
// with writers. Handles are independent of each other: a handle never
// refers to another version's handle or arrays.
//
// CheckSynced is the differential oracle: the pinned tree's lazy indexes
// must equal a fresh derivation from the tree's numbering
// (tree.CheckIndex, which builds them if no query has), and the handle's
// aggregates a fresh fold.
//
// Cache retains handles in an LRU keyed by (graph, version) so a bounded
// number of hot versions keep their indexes alive while old versions age
// out. Eviction never invalidates a held Handle — it only drops the cache's
// reference; readers still holding the handle keep querying it, exactly
// like a retained Snapshot.
package snapquery
