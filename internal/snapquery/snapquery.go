package snapquery

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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

// lazy is a build-once slot: a nil-until-built atomic pointer guarded by a
// mutex that serializes the single build (the singleflight). The fast path
// is one atomic load.
type lazy[T any] struct {
	p  atomic.Pointer[T]
	mu sync.Mutex
}

// Handle answers derived queries against exactly one pinned snapshot
// version. It is immutable from the caller's perspective and safe for
// unbounded concurrent use; all mutation is the internal build-once filling
// of index slots. A Handle obtained from a Cache (or dfs.Service.Query)
// remains valid after the cache evicts it and after any number of later
// graph updates.
type Handle struct {
	key     Key
	g       *graph.Persistent
	t       *tree.Tree
	pseudo  int
	observe func(string, time.Duration) // cache metrics observer (graph, build cost); nil standalone

	biconIx lazy[biconIndex]
	aggIx   lazy[aggIndex]
}

// New builds an uncached handle over a frozen (graph, tree, pseudo root)
// triple, e.g. a retained service Snapshot or a paused maintainer. pseudo
// is the artificial forest root (tree.None when the root is a real vertex).
// The handle answers the LCA family and level ancestors from t's own index.
func New(g *graph.Persistent, t *tree.Tree, pseudo int) *Handle {
	return &Handle{g: g, t: t, pseudo: pseudo}
}

// Key returns the (graph, version) pair the handle is pinned to (zero for
// standalone handles).
func (h *Handle) Key() Key { return h.key }

// Version returns the pinned snapshot version.
func (h *Handle) Version() uint64 { return h.key.Version }

// Tree returns the pinned DFS tree (read-only).
func (h *Handle) Tree() *tree.Tree { return h.t }

// Graph returns the pinned graph version (read-only).
func (h *Handle) Graph() *graph.Persistent { return h.g }

// PseudoRoot returns the artificial forest root (tree.None if absent).
func (h *Handle) PseudoRoot() int { return h.pseudo }

// Warm eagerly builds every index of the bundle (the cold-path cost later
// queries would otherwise pay lazily). Concurrent-safe like every query.
func (h *Handle) Warm() {
	h.bicon()
	h.agg()
}

// once fills one index slot under its singleflight: the first caller
// builds, concurrent callers block on it, later ones take an atomic load.
func once[T any](h *Handle, slot *lazy[T], build func() *T) *T {
	if v := slot.p.Load(); v != nil {
		return v
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if v := slot.p.Load(); v != nil {
		return v
	}
	start := time.Now()
	v := build()
	if h.observe != nil {
		h.observe(h.key.Graph, time.Since(start))
	}
	slot.p.Store(v)
	return v
}

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
// (inclusive), or an error when they lie in different components.
func (h *Handle) TreePath(u, v int) ([]int, error) {
	l, err := h.LCA(u, v)
	if err != nil {
		return nil, err
	}
	if l < 0 {
		return nil, fmt.Errorf("snapquery: TreePath(%d,%d): different components", u, v)
	}
	t := h.t
	path := make([]int, 0, t.Level(u)+t.Level(v)-2*t.Level(l)+1)
	for x := u; x != l; x = t.Parent[x] {
		path = append(path, x)
	}
	path = append(path, l)
	down := len(path)
	for x := v; x != l; x = t.Parent[x] {
		path = append(path, x)
	}
	// The v-side climbed bottom-up; flip it so the path reads u..l..v.
	for i, j := down, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
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

// aggIndex holds the bottom-up aggregates missing from the tree numbering
// (size and level are already maintained by tree.Build).
type aggIndex struct {
	height []int32
	min    []int32
	max    []int32
}

func (h *Handle) agg() *aggIndex {
	return once(h, &h.aggIx, func() *aggIndex { return buildAggIndex(h.t) })
}

func buildAggIndex(t *tree.Tree) *aggIndex {
	n := t.N()
	ix := &aggIndex{
		height: make([]int32, n),
		min:    make([]int32, n),
		max:    make([]int32, n),
	}
	// Reversed pre-order: every child is finalized before its parent and
	// pushes its aggregates into the parent's. Siblings push from the last
	// to the first, so the last child (no next sibling) arrives first.
	order := t.PreOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		mn, mx := int32(v), int32(v)
		if t.Size(v) > 1 { // its children have pushed theirs
			mn, mx = min(mn, ix.min[v]), max(mx, ix.max[v])
		}
		ix.min[v], ix.max[v] = mn, mx
		p := t.Parent[v]
		if p == tree.None {
			continue
		}
		ix.height[p] = max(ix.height[p], ix.height[v]+1)
		if t.NextSibling(v) == tree.None {
			ix.min[p], ix.max[p] = mn, mx
		} else {
			ix.min[p], ix.max[p] = min(ix.min[p], mn), max(ix.max[p], mx)
		}
	}
	return ix
}

// SubtreeSize returns |T(v)|.
func (h *Handle) SubtreeSize(v int) (int, error) {
	if err := h.check("SubtreeSize", v); err != nil {
		return 0, err
	}
	return h.t.Size(v), nil
}

// SubtreeAgg returns the aggregate of T(v): size, height, min and max
// vertex label.
func (h *Handle) SubtreeAgg(v int) (Agg, error) {
	if err := h.check("SubtreeAgg", v); err != nil {
		return Agg{}, err
	}
	ix := h.agg()
	return Agg{
		Size:      h.t.Size(v),
		Height:    int(ix.height[v]),
		MinVertex: int(ix.min[v]),
		MaxVertex: int(ix.max[v]),
	}, nil
}

// ---- Biconnectivity ----

// biconIndex caches the analysis plus the sorted result slices so repeated
// Bridges/ArticulationPoints calls are pointer loads, not re-sorts.
type biconIndex struct {
	an      *bicon.Analysis
	bridges []graph.Edge
	artic   []int
}

func (h *Handle) bicon() *biconIndex {
	return once(h, &h.biconIx, func() *biconIndex {
		an := bicon.Analyze(h.g, h.t, h.pseudo, nil)
		return &biconIndex{an: an, bridges: an.Bridges(), artic: an.ArticulationPoints()}
	})
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

// CheckSynced verifies the indexes the handle answers from against fresh
// ground-up builds over the same tree, mirroring dstruct.D's CheckSynced:
// the tree's lazy indexes must pass tree.CheckIndex (which builds them on a
// tree no query has indexed yet), and every live vertex's aggregates, once
// built, must equal the fresh ones. The handle's slots not yet built are
// skipped, so the oracle never fills them itself; nil means every index is
// in sync.
func (h *Handle) CheckSynced() error {
	t := h.t
	if err := t.CheckIndex(); err != nil {
		return fmt.Errorf("snapquery: CheckSynced: %w", err)
	}
	if got := h.aggIx.p.Load(); got != nil {
		want := buildAggIndex(t)
		for v := 0; v < t.N(); v++ {
			if !t.Present(v) {
				continue
			}
			if got.height[v] != want.height[v] || got.min[v] != want.min[v] || got.max[v] != want.max[v] {
				return fmt.Errorf("snapquery: CheckSynced: agg[%d] = (%d,%d,%d), want (%d,%d,%d)",
					v, got.height[v], got.min[v], got.max[v], want.height[v], want.min[v], want.max[v])
			}
		}
	}
	return nil
}
