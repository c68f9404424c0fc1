// Package dstruct implements the paper's data structure D (Section 5.2,
// Theorems 8 and 9): for each vertex v, the neighbor list N(v) sorted by
// position in a post-order of the base DFS tree T. Because T is a DFS tree,
// every edge of G is a back edge, so the vertices of N(v) that are ancestors
// of v appear sorted by their position on the root-to-v path — an edge from
// v to any ancestor-descendant query path of T reduces to one binary search.
//
// Rows are ordered by D's own relocatable order keys (a copy of T's
// post-order labels held in the key array), never by live tree lookups.
// Keeping the labels in D is what lets the structure follow a tree that
// changes underneath it, in either of two maintenance regimes:
//
//   - Incremental (fully dynamic mode, Theorem 13): after each update the
//     maintainer calls Update with the engine's moved-vertex set. Only
//     vertices inside moved subtrees change relative post-order (children
//     are ordered by ID on both sides of the update), so Update removes the
//     moved and deleted entries by binary search under the previous labels,
//     refreshes the keys from the new tree in one O(n) pass, and re-inserts
//     the moved and patched entries under the new labels — O(Σ deg(moved) ·
//     log) row work instead of the O(n+m) pass of a ground-up rebuild, with
//     a churn-ratio fallback to Rebuild so the worst case never regresses
//     past the paper's m-processor rebuild. Between updates
//     D carries no patches and is structurally identical to a fresh
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
// and Update then folds those same patches into the base rows.
//
// Concurrency: Build, Rebuild, Update, and the Patch* methods mutate D and
// require exclusive access. The EdgeToWalk query family is read-only —
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
// Execution vs accounting: the EdgeToWalk family shards large source
// batches over the machine's worker pool (see query.go); Build runs on the
// calling goroutine. The machine's recorded depth/work stay purely
// analytic: Build charges Theorem 8's preprocessing cost (a parallel merge
// sort of every row on m processors) in one step, query batches
// are charged by their callers as single O(log n)-depth steps (Theorems 6
// and 8), and the execution layer itself charges nothing — so host
// parallelism changes wall-clock time but never the model costs.
package dstruct
