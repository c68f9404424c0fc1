// Package dstruct implements the paper's data structure D (Section 5.2,
// Theorems 8 and 9): for each vertex v, the neighbor list N(v) sorted by
// position in a post-order of the base DFS tree T. Because T is a DFS tree,
// every edge of G is a back edge, so the vertices of N(v) that are ancestors
// of v appear sorted by their position on the root-to-v path — an edge from
// v to any ancestor-descendant query path of T reduces to one binary search.
//
// Rows are ordered by T's post-order labels, which D reads from the tree
// itself (T.PostLabels(), no copy): T is immutable, and D is rebuilt or
// stays pinned whenever its tree changes. D serves two maintenance regimes:
//
//   - Rebuild (fully dynamic mode, Theorem 13): after each update the
//     maintainer rebuilds D in place over the new graph and tree — one
//     O(n+m) bucket pass, charged as Theorem 8's preprocessing — so between
//     updates D carries no patches and is structurally identical to a fresh
//     Build (CheckSynced audits exactly this).
//
//   - Pinned patches (fault-tolerant mode, Theorems 9 and 14): D stays
//     frozen on the base tree and numbering while edge/vertex insertions
//     and deletions accumulate as small patches consulted during every
//     search (Theorem 9's O(log n + k) search). A D built once keeps
//     answering for the whole update batch; ResetPatches returns it to the
//     as-built state between batches without reallocating.
//
// The fully dynamic maintainer also uses the patch machinery transiently:
// each in-flight update is patch-recorded first, so the rerooting engine
// queries the updated graph against the old tree (Theorem 9's guarantee),
// and Rebuild then discards those patches with the rest of the old rows.
//
// Concurrency: Build, Rebuild, ResetPatches and the Patch* methods mutate
// D and require exclusive access. The EdgeToWalk query family is read-only —
// search-effort counters go to a caller-supplied per-call *Stats — so any
// number of goroutines may query one D concurrently between mutations.
//
// Query cost: EdgeToWalkBatch prepares each distinct walk of a batch once —
// its base-tree run decomposition, plus the walk-position index when D
// holds inserted-edge patches — and shares it across every query on that
// walk. A batch of k total sources thus costs O(Σ|distinct walk| + k log n)
// work per run, not O(Σ|walk per query| + k log n); the rerooting engine
// sends many small-source queries against one walk slice, so the
// difference is most of its query time.
//
// Build cost: the order keys are a permutation of the live vertices, so
// Build and Rebuild fill every row in one O(n+m) bucket pass — each vertex,
// taken in key order, is appended to the row of every neighbor — and no row
// is ever comparison-sorted.
//
// Execution vs accounting: D executes sequentially — Build, Rebuild and
// every query run on the calling goroutine — and the machine it is given
// is an accountant only. The recorded depth/work are purely analytic:
// Build and Rebuild charge Theorem 8's preprocessing cost (a parallel merge
// sort of every row on m processors) in one step, and query batches are
// charged by their callers as single O(log n)-depth steps (Theorems 6 and
// 8) — so the host's core count never changes the model costs.
package dstruct
