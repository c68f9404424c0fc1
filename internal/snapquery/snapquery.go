package snapquery

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bicon"
	"repro/internal/graph"
	"repro/internal/tree"
)

// Key identifies one snapshot version of one graph.
type Key struct {
	Graph   string
	Version uint64
}

// Handle answers derived queries against exactly one pinned snapshot
// version. It is immutable from the caller's perspective and safe for
// unbounded concurrent use; all mutation is the internal build-once of the
// biconnectivity index. The serving layer hangs one handle on each
// published snapshot (dfs.Service.Query), so it lives exactly as long as
// that snapshot and keeps answering for its version after any number of
// later graph updates.
type Handle struct {
	key     Key
	g       *graph.Persistent
	t       *tree.Tree
	pseudo  int
	observe func(time.Duration) // bicon build observer; nil when unobserved

	biconOnce sync.Once
	biconIx   *biconIndex
}

// New builds an unkeyed, unobserved handle over a frozen (graph, tree,
// pseudo root) triple, e.g. a retained service Snapshot or a paused
// maintainer. pseudo is the artificial forest root (tree.None when the root
// is a real vertex). The handle answers the LCA family and level ancestors
// from t's own index, and subtree aggregates and tree paths from t's
// pre-order and parents.
func New(g *graph.Persistent, t *tree.Tree, pseudo int) *Handle {
	return NewObserved(Key{}, g, t, pseudo, nil)
}

// NewObserved is New for a handle pinned to key's version whose one index
// build, bicon, reports its duration to observe (nil: nobody).
func NewObserved(key Key, g *graph.Persistent, t *tree.Tree, pseudo int, observe func(time.Duration)) *Handle {
	return &Handle{key: key, g: g, t: t, pseudo: pseudo, observe: observe}
}

// Key returns the (graph, version) pair the handle is pinned to (zero for
// handles built by New).
func (h *Handle) Key() Key { return h.key }

// Version returns the pinned snapshot version.
func (h *Handle) Version() uint64 { return h.key.Version }

// Tree returns the pinned DFS tree (read-only).
func (h *Handle) Tree() *tree.Tree { return h.t }

// Graph returns the pinned graph version (read-only).
func (h *Handle) Graph() *graph.Persistent { return h.g }

// PseudoRoot returns the artificial forest root (tree.None if absent).
func (h *Handle) PseudoRoot() int { return h.pseudo }

// Warm eagerly builds the handle's one index, the biconnectivity analysis
// (the cold-path cost later queries would otherwise pay lazily).
// Concurrent-safe like every query.
func (h *Handle) Warm() { h.bicon() }

// live reports whether v is a queryable vertex: present and not the
// artificial pseudo root.
func (h *Handle) live(v int) bool { return h.t.Present(v) && v != h.pseudo }

func (h *Handle) check(op string, vs ...int) error {
	for _, v := range vs {
		if !h.live(v) {
			return fmt.Errorf("snapquery: %s: %d is not a vertex of %q@%d",
				op, v, h.key.Graph, h.key.Version)
		}
	}
	return nil
}

// ---- LCA family ----

// LCA returns the lowest common ancestor of u and v in the snapshot's DFS
// forest, or -1 when u and v lie in different connected components (their
// only common ancestor is the artificial pseudo root).
func (h *Handle) LCA(u, v int) (int, error) {
	if err := h.check("LCA", u, v); err != nil {
		return -1, err
	}
	l := h.t.LCA(u, v)
	if l == h.pseudo {
		return -1, nil
	}
	return l, nil
}

// SameComponent reports whether u and v are connected in the snapshot.
func (h *Handle) SameComponent(u, v int) (bool, error) {
	l, err := h.LCA(u, v)
	return l >= 0, err
}

// IsAncestor reports whether a is an ancestor of v (not necessarily
// proper) in the snapshot's DFS tree.
func (h *Handle) IsAncestor(a, v int) (bool, error) {
	if err := h.check("IsAncestor", a, v); err != nil {
		return false, err
	}
	return h.t.IsAncestor(a, v), nil
}

// Depth returns v's level in the pseudo-rooted forest: component roots are
// at depth 1 (the pseudo root holds depth 0).
func (h *Handle) Depth(v int) (int, error) {
	if err := h.check("Depth", v); err != nil {
		return 0, err
	}
	return h.t.Level(v), nil
}

// TreePath returns the vertices of the unique tree path from u to v
// (inclusive), or an error when they lie in different components. It climbs
// the deeper end to the other's level, then both ends until they meet at
// their LCA, and fills the path by a second climb: O(path), no index.
func (h *Handle) TreePath(u, v int) ([]int, error) {
	if err := h.check("TreePath", u, v); err != nil {
		return nil, err
	}
	t := h.t
	x, y, nu, nv := u, v, 0, 0 // nu, nv: edges from u and from v up to x, y
	for ; t.Level(x) > t.Level(y); nu++ {
		x = t.Parent[x]
	}
	for ; t.Level(y) > t.Level(x); nv++ {
		y = t.Parent[y]
	}
	for ; x != y; nu, nv = nu+1, nv+1 {
		x, y = t.Parent[x], t.Parent[y]
	}
	if x == h.pseudo {
		return nil, fmt.Errorf("snapquery: TreePath(%d,%d): different components", u, v)
	}
	path := make([]int, nu+nv+1)
	for i, w := 0, u; i <= nu; i, w = i+1, t.Parent[w] {
		path[i] = w
	}
	for i, w := len(path)-1, v; i > nu; i, w = i-1, t.Parent[w] {
		path[i] = w
	}
	return path, nil
}

// ---- Level ancestors ----

// KthAncestor returns v's k-th ancestor within its component (k=0 is v
// itself), or -1 when the walk leaves the component (reaches the pseudo
// root or climbs past a real root). O(log n) over the tree's LCA index.
func (h *Handle) KthAncestor(v, k int) (int, error) {
	if err := h.check("KthAncestor", v); err != nil {
		return -1, err
	}
	if k < 0 {
		return -1, fmt.Errorf("snapquery: KthAncestor(%d,%d): negative k", v, k)
	}
	return h.ancestorAt(v, h.t.Level(v)-k), nil
}

// AncestorAtDepth returns the ancestor of v at the given depth (Depth
// semantics: component roots at 1), or -1 when depth is above v's
// component root or below v's own depth.
func (h *Handle) AncestorAtDepth(v, depth int) (int, error) {
	if err := h.check("AncestorAtDepth", v); err != nil {
		return -1, err
	}
	if depth < 1 || depth > h.t.Level(v) {
		return -1, nil
	}
	return h.ancestorAt(v, depth), nil
}

// ancestorAt returns v's ancestor at level d, or -1 above the forest (a
// negative level, or the pseudo root).
func (h *Handle) ancestorAt(v, d int) int {
	if d < 0 {
		return -1
	}
	if a := h.t.AncestorAtDepth(v, d); a != h.pseudo {
		return a
	}
	return -1
}

// ---- Subtree aggregates ----

// Agg is the aggregate over one subtree T(v).
type Agg struct {
	Size      int // number of vertices in T(v)
	Height    int // longest downward path from v (leaf = 0)
	MinVertex int // smallest vertex label in T(v)
	MaxVertex int // largest vertex label in T(v)
}

// SubtreeSize returns |T(v)|.
func (h *Handle) SubtreeSize(v int) (int, error) {
	if err := h.check("SubtreeSize", v); err != nil {
		return 0, err
	}
	return h.t.Size(v), nil
}

// SubtreeAgg returns the aggregate of T(v): size, height, min and max
// vertex label. T(v) is the pre-order window [Pre(v), Pre(v)+Size(v)), so
// one O(|T(v)|) scan of it answers, with no index.
func (h *Handle) SubtreeAgg(v int) (Agg, error) {
	if err := h.check("SubtreeAgg", v); err != nil {
		return Agg{}, err
	}
	t := h.t
	a := Agg{Size: t.Size(v), MinVertex: v, MaxVertex: v}
	deepest := t.Level(v)
	for _, w := range t.PreOrder()[t.Pre(v) : t.Pre(v)+t.Size(v)] {
		a.MinVertex, a.MaxVertex = min(a.MinVertex, w), max(a.MaxVertex, w)
		deepest = max(deepest, t.Level(w))
	}
	a.Height = deepest - t.Level(v)
	return a, nil
}

// ---- Biconnectivity ----

// biconIndex caches the analysis plus the sorted result slices so repeated
// Bridges/ArticulationPoints calls are pointer loads, not re-sorts.
type biconIndex struct {
	an      *bicon.Analysis
	bridges []graph.Edge
	artic   []int
}

// bicon builds the index on first use under a sync.Once: concurrent first
// readers share one build, and its duration goes to the handle's observer.
func (h *Handle) bicon() *biconIndex {
	h.biconOnce.Do(func() {
		start := time.Now()
		an := bicon.Analyze(h.g, h.t, h.pseudo, nil)
		h.biconIx = &biconIndex{an: an, bridges: an.Bridges(), artic: an.ArticulationPoints()}
		if h.observe != nil {
			h.observe(time.Since(start))
		}
	})
	return h.biconIx
}

// IsArticulation reports whether deleting v would disconnect its component.
func (h *Handle) IsArticulation(v int) (bool, error) {
	if err := h.check("IsArticulation", v); err != nil {
		return false, err
	}
	return h.bicon().an.IsArticulation(v), nil
}

// ArticulationPoints returns all articulation points in ascending order.
// Callers must not mutate the returned slice (it is shared by the handle).
func (h *Handle) ArticulationPoints() []int { return h.bicon().artic }

// Bridges returns all bridge edges in canonical ascending order. Callers
// must not mutate the returned slice (it is shared by the handle).
func (h *Handle) Bridges() []graph.Edge { return h.bicon().bridges }

// IsBridge reports whether (u,v) is a bridge of the snapshot. O(log n)
// via binary search over the canonical-sorted bridge list.
func (h *Handle) IsBridge(u, v int) (bool, error) {
	if err := h.check("IsBridge", u, v); err != nil {
		return false, err
	}
	if !h.g.HasEdge(u, v) {
		return false, fmt.Errorf("snapquery: IsBridge(%d,%d): not an edge of %q@%d",
			u, v, h.key.Graph, h.key.Version)
	}
	e := graph.Edge{U: u, V: v}.Canon()
	bridges := h.bicon().bridges
	i := sort.Search(len(bridges), func(i int) bool {
		b := bridges[i]
		return b.U > e.U || (b.U == e.U && b.V >= e.V)
	})
	return i < len(bridges) && bridges[i] == e, nil
}

// BiconnectedComponentOf returns the biconnected component ID of the tree
// edge (parent(v), v), or -1 when v is a component root (its parent edge
// does not exist).
func (h *Handle) BiconnectedComponentOf(v int) (int, error) {
	if err := h.check("BiconnectedComponentOf", v); err != nil {
		return -1, err
	}
	return h.bicon().an.ComponentOf(v), nil
}

// NumBiconnectedComponents returns the number of biconnected components.
func (h *Handle) NumBiconnectedComponents() int { return h.bicon().an.NumComponents() }

// SameBiconnectedComponent reports whether the parent tree edges of u and v
// carry the same biconnected component ID (false when either is a component
// root). This is the tree-edge labelling of the underlying analysis: two
// vertices compare equal exactly when their edges into the tree belong to
// one biconnected component.
func (h *Handle) SameBiconnectedComponent(u, v int) (bool, error) {
	if err := h.check("SameBiconnectedComponent", u, v); err != nil {
		return false, err
	}
	an := h.bicon().an
	cu, cv := an.ComponentOf(u), an.ComponentOf(v)
	return cu >= 0 && cu == cv, nil
}

// ---- Differential oracle ----

// CheckSynced verifies the index the LCA family answers from against a
// fresh ground-up build over the same tree, mirroring dstruct.D's
// CheckSynced: the tree's lazy indexes must pass tree.CheckIndex (which
// builds them on a tree no query has indexed yet). nil means in sync.
func (h *Handle) CheckSynced() error {
	if err := h.t.CheckIndex(); err != nil {
		return fmt.Errorf("snapquery: CheckSynced: %w", err)
	}
	return nil
}
