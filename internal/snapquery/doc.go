// Package snapquery is the snapshot analytics engine: a read-only query
// layer over one frozen (graph, DFS tree) pair — the state the serving
// layer publishes after every update — that answers the queries classical
// DFS applications ask without rebuilding anything per query.
//
// A Handle pins exactly one snapshot version and answers from:
//
//   - the pinned tree's own block-RMQ LCA index (package tree: the paper's
//     Theorem 5/6 Schieber–Vishkin stand-in, the same structure the update
//     path queries) for LCA and SameComponent, and for KthAncestor /
//     AncestorAtDepth through tree.AncestorAtDepth, an O(log n) search over
//     the same block minima instead of an O(depth) parent walk;
//   - the pinned tree's pre-order, with no index: T(v) is the window
//     PreOrder()[Pre(v) : Pre(v)+Size(v)], so SubtreeAgg (size, height,
//     min/max vertex label) is one O(|T(v)|) scan of it, and TreePath
//     climbs both ends by level until they meet, in O(path);
//   - full biconnectivity analysis (internal/bicon: articulation points,
//     bridges, biconnected-component IDs of tree edges), the handle's only
//     index of its own.
//
// The LCA index is not the handle's: it belongs to the pinned tree, which
// builds it on its first LCA or level-ancestor query under a sync.Once
// (package tree), so handles of versions sharing one tree share one index,
// and the update path, which never asks, never builds one.
//
// The bicon index is built once per handle under a sync.Once: concurrent
// first readers share one build (one builds, the rest block on it), and
// every later reader reads the built index. Because the underlying
// snapshot structures are persistent (updates path-copy away from them),
// its construction needs no synchronization with writers. Handles are
// independent of each other: a handle never refers to another version's
// handle or arrays.
//
// CheckSynced is the differential oracle: the pinned tree's lazy indexes
// must equal a fresh derivation from the tree's numbering (tree.CheckIndex,
// which builds them if no query has).
//
// A handle owns nothing a later version needs, so the serving layer keeps
// no cache of them: each published snapshot carries its own handle,
// installed by its first query (NewObserved, which also reports the bicon
// build's duration), and the handle and its index live exactly as long as
// the snapshot does.
package snapquery
