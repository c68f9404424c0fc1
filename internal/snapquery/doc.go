// Package snapquery is the snapshot analytics engine: a read-only query
// layer over one frozen (graph, DFS tree) pair — the state the serving
// layer publishes after every update — that memoizes the derived indexes
// classical DFS applications need instead of rebuilding them per query.
//
// A Handle pins exactly one snapshot version and lazily constructs a bundle
// of indexes over it:
//
//   - the Euler-tour/block-RMQ LCA index of internal/lca (the paper's
//     Theorem 5/6 Schieber–Vishkin stand-in, the same structure the update
//     path queries) for LCA, SameComponent and TreePath. Its block width is
//     8, chosen for the update path, which asks about three times as many
//     LCA queries as this engine; at that width a build or patch still
//     re-spans a sparse table only an eighth of the tour long;
//   - binary-lifting ancestor tables for KthAncestor / AncestorAtLevel in
//     O(log n) instead of the tree's O(depth) parent walk;
//   - bottom-up subtree aggregates (height, min/max vertex label; size and
//     depth come free from the tree numbering) for SubtreeAgg;
//   - full biconnectivity analysis (internal/bicon: articulation points,
//     bridges, biconnected-component IDs of tree edges).
//
// Each index is built exactly once per handle under a singleflight guard:
// concurrent first readers share one build (one builds, the rest block on
// it), and every later reader takes a pure atomic pointer load. Because the
// underlying snapshot structures are persistent (updates path-copy away
// from them), index construction needs no synchronization with writers.
//
// # Differential builds
//
// Since one graph update reroots only a bounded set of subtrees (the
// paper's reduction), consecutive versions share almost all derived state:
// every vertex outside the update's moved set keeps its parent, its level,
// and its relative Euler order. Handles created with NewDerived or
// Cache.HandleDerived carry that moved-vertex Delta plus a reference to the
// parent version's handle, and each tree index *patches* the parent's
// immutable arrays instead of rebuilding:
//
//   - LCA: the new Euler tour is spliced (lca.Patch) — maximal clean
//     subtrees are memcpy'd straight out of the parent's tour/depth arrays,
//     only the dirty closure is walked — and the small block-level sparse
//     table is re-spanned;
//   - binary lifting: rows are copied and only the moved vertices' entries
//     recomputed level-by-level (an unmoved vertex's ancestor chain is
//     identical in both trees);
//   - subtree aggregates: three memcpys plus a bottom-up re-fold of the
//     affected ancestor closure.
//
// A pure detachment — the moved set empty, only removals, e.g. a leaf or
// subtree delete — is the degenerate and fastest case: no surviving
// vertex's root path changed, so the parent's tour and lifting table answer
// every live query verbatim and are shared outright (the detached vertices'
// leftover tour occurrences can never be a live range minimum, and are
// rejected as query arguments before lookup). Only the aggregates are
// patched, by climbing the detach anchor's root path until the fold
// stabilizes. That keeps the low-churn patch cost at O(changed aggregates)
// plus three memcpys even for the path-like, Θ(n)-deep DFS trees of sparse
// graphs, where any ancestor-closure walk would be Θ(n) pointer chasing. A
// tour shared this way is marked stale and declines to serve as the base of
// a later splice (its segment offsets include the phantom entries); the
// grandchild falls back to a fresh build instead.
//
// The patch falls back to a fresh build — counted separately in the cache's
// stats — when the delta is missing or churn-heavy (the same ratio fallback
// dstruct.D uses), when the vertex-ID space was renumbered, or when the
// parent handle is gone (evicted before this version's first query, or
// already released). Biconnectivity is the deliberate exception: low-points
// depend on the global back-edge structure, so a single inserted back edge
// can flip bridges arbitrarily far from the moved set — there is no
// locality to exploit, and the bicon index is always built fresh.
//
// Patched and fresh indexes are structurally identical, not merely
// equivalent — CheckSynced is the differential oracle that verifies it
// (for a shared stale tour, identical after dropping the phantom
// occurrences removal leaves behind).
// The parent reference is dropped as soon as the three patchable indexes
// are materialized (or the handle's cache entry ages out), so version
// chains do not accumulate: at most one extra tree is retained per handle
// still awaiting its first query.
//
// Cache retains handles in an LRU keyed by (graph, version) so a bounded
// number of hot versions keep their indexes alive while old versions age
// out. Eviction never invalidates a held Handle — it only drops the cache's
// reference; readers still holding the handle keep querying it, exactly
// like a retained Snapshot.
package snapquery
