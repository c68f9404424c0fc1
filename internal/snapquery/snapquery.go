package snapquery

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bicon"
	"repro/internal/graph"
	"repro/internal/lca"
	"repro/internal/tree"
)

// Key identifies one snapshot version of one graph.
type Key struct {
	Graph   string
	Version uint64
}

// buildOutcome classifies how one index slot got its value, for the cache's
// patch-vs-build accounting.
type buildOutcome int

const (
	outcomeBuild    buildOutcome = iota // fresh build, no parent on hand
	outcomePatch                        // derived from the parent version's index
	outcomeFallback                     // parent on hand but patch declined (churn/renumber)
)

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
	observe func(string, buildOutcome, time.Duration) // cache metrics observer (graph, outcome, cost); nil standalone

	// Differential-build state: while parent is set, each tree index first
	// tries to patch the parent handle's arrays using delta (see patch.go).
	// The reference is dropped once all three patchable slots are filled so
	// handle chains never retain more than one generation.
	parent atomic.Pointer[Handle]
	delta  Delta
	built  atomic.Int32 // patchable slots filled; parent released at 3

	planMu   sync.Mutex
	planDone bool
	plan     *patchPlan

	lcaIdx  lazy[lca.Index]
	biconIx lazy[biconIndex]
	aggIx   lazy[aggIndex]
	liftIx  lazy[liftIndex]
}

// New builds an uncached handle over a frozen (graph, tree, pseudo root)
// triple, e.g. a retained service Snapshot or a paused maintainer. pseudo
// is the artificial forest root (tree.None when the root is a real vertex).
func New(g *graph.Persistent, t *tree.Tree, pseudo int) *Handle {
	return &Handle{key: Key{}, g: g, t: t, pseudo: pseudo}
}

// NewDerived is New for a version whose parent handle and update delta are
// on hand: the tree indexes will patch parent's arrays instead of building
// from scratch whenever the delta permits (falling back silently when it
// does not). parent must pin the version delta was measured against.
func NewDerived(parent *Handle, g *graph.Persistent, t *tree.Tree, pseudo int, delta Delta) *Handle {
	h := New(g, t, pseudo)
	if parent != nil {
		h.delta = delta
		h.parent.Store(parent)
	}
	return h
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
	h.lca()
	h.bicon()
	h.agg()
	h.lift()
}

// patchPlan returns the handle's delta closure (nil = patch declined),
// computing it on first use; the three patchable slots share one plan.
func (h *Handle) patchPlan(par *Handle) *patchPlan {
	h.planMu.Lock()
	defer h.planMu.Unlock()
	if !h.planDone {
		h.plan = buildPatchPlan(par.t, h.t, h.delta)
		h.planDone = true
	}
	return h.plan
}

// slotBuilt records one patchable slot filled; after the third the parent
// reference and the plan are released so the version chain can be collected.
func (h *Handle) slotBuilt() {
	if h.built.Add(1) != 3 {
		return
	}
	h.parent.Store(nil)
	h.planMu.Lock()
	h.plan = nil
	h.planMu.Unlock()
}

// derive fills one patchable index slot under its singleflight: patch from
// the parent version when one is held and the plan allows it, else build
// fresh. Chains recurse naturally — patch typically starts by demanding the
// parent's own slot, which may itself patch from the grandparent; the lock
// order is strictly child→parent, so chained first queries cannot deadlock.
func derive[T any](h *Handle, slot *lazy[T], fresh func() *T, patch func(par *Handle, plan *patchPlan) *T) *T {
	if v := slot.p.Load(); v != nil {
		return v
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if v := slot.p.Load(); v != nil {
		return v
	}
	start := time.Now()
	var v *T
	outcome := outcomeBuild
	if par := h.parent.Load(); par != nil {
		if plan := h.patchPlan(par); plan != nil {
			// A patch func may still decline (nil) after inspecting the
			// parent's index — e.g. a splice over a stale shared tour.
			if v = patch(par, plan); v != nil {
				outcome = outcomePatch
			} else {
				outcome = outcomeFallback
			}
		} else {
			outcome = outcomeFallback
		}
	}
	if v == nil {
		v = fresh()
	}
	if h.observe != nil {
		h.observe(h.key.Graph, outcome, time.Since(start))
	}
	slot.p.Store(v)
	h.slotBuilt()
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

func (h *Handle) lca() *lca.Index {
	return derive(h, &h.lcaIdx,
		func() *lca.Index { return lca.Build(h.t) },
		func(par *Handle, plan *patchPlan) *lca.Index {
			pix := par.lca()
			if plan.sameTree {
				return pix // identical tree object: share the index outright
			}
			if plan.shareClean {
				// Pure detachment: no live root path changed, so the parent
				// tour's range minima still land on the right LCAs for every
				// live pair. Share the arrays, flagged stale when vertices
				// were removed (the tour keeps their occurrences).
				return pix.Shared(len(h.delta.Removed) > 0)
			}
			// A stale parent declines (nil): splicing needs exact offsets.
			return lca.Patch(pix, h.t, func(v int) bool {
				return !plan.dirty1[v] && !plan.dirty2[v]
			})
		})
}

// LCA returns the lowest common ancestor of u and v in the snapshot's DFS
// forest, or -1 when u and v lie in different connected components (their
// only common ancestor is the artificial pseudo root).
func (h *Handle) LCA(u, v int) (int, error) {
	if err := h.check("LCA", u, v); err != nil {
		return -1, err
	}
	l := h.lca().LCA(u, v)
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

// liftIndex is the binary-lifting table: up[k][v] is v's 2^k-th ancestor,
// -1 above the forest (the pseudo root lifts to -1 like a real root).
type liftIndex struct {
	up [][]int32
}

func (h *Handle) lift() *liftIndex {
	return derive(h, &h.liftIx,
		func() *liftIndex { return buildLiftIndex(h.t) },
		func(par *Handle, plan *patchPlan) *liftIndex {
			pix := par.lift()
			if plan.sameTree || plan.shareClean {
				// shareClean: an unmoved vertex keeps its whole ancestor
				// chain, so every row is entry-for-entry reusable at live
				// slots; extra top rows of a now-too-tall table read -1 for
				// any live vertex, which KthAncestor already treats as
				// above-the-root. Unlike the tour, a shared table is still a
				// valid base for later row-copy patches.
				return pix
			}
			return patchLiftIndex(pix, h.t, plan, h.delta.Moved)
		})
}

func buildLiftIndex(t *tree.Tree) *liftIndex {
	n := t.N()
	maxLvl := 0
	for v := 0; v < n; v++ {
		if t.Present(v) && t.Level(v) > maxLvl {
			maxLvl = t.Level(v)
		}
	}
	levels := bits.Len(uint(maxLvl))
	if levels == 0 {
		levels = 1
	}
	up := make([][]int32, levels)
	row0 := make([]int32, n)
	for v := 0; v < n; v++ {
		if t.Present(v) && t.Parent[v] != tree.None {
			row0[v] = int32(t.Parent[v])
		} else {
			row0[v] = -1
		}
	}
	up[0] = row0
	for k := 1; k < levels; k++ {
		prev := up[k-1]
		row := make([]int32, n)
		for v := 0; v < n; v++ {
			if p := prev[v]; p >= 0 {
				row[v] = prev[p]
			} else {
				row[v] = -1
			}
		}
		up[k] = row
	}
	return &liftIndex{up: up}
}

// KthAncestor returns v's k-th ancestor within its component (k=0 is v
// itself), or -1 when the walk leaves the component (reaches the pseudo
// root or climbs past a real root). O(log n) via binary lifting.
func (h *Handle) KthAncestor(v, k int) (int, error) {
	if err := h.check("KthAncestor", v); err != nil {
		return -1, err
	}
	if k < 0 {
		return -1, fmt.Errorf("snapquery: KthAncestor(%d,%d): negative k", v, k)
	}
	ix := h.lift()
	x := int32(v)
	for b := 0; k != 0 && x >= 0; b, k = b+1, k>>1 {
		if k&1 == 0 {
			continue
		}
		if b >= len(ix.up) {
			x = -1
			break
		}
		x = ix.up[b][x]
	}
	if x < 0 || int(x) == h.pseudo {
		return -1, nil
	}
	return int(x), nil
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
	return h.KthAncestor(v, h.t.Level(v)-depth)
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
	return derive(h, &h.aggIx,
		func() *aggIndex { return buildAggIndex(h.t) },
		func(par *Handle, plan *patchPlan) *aggIndex {
			if plan.sameTree {
				return par.agg()
			}
			return patchAggIndex(par.agg(), h.t, plan)
		})
}

func buildAggIndex(t *tree.Tree) *aggIndex {
	n := t.N()
	ix := &aggIndex{
		height: make([]int32, n),
		min:    make([]int32, n),
		max:    make([]int32, n),
	}
	// Post-order ascending: every child is finalized before its parent.
	order := make([]int32, t.Live())
	for v := 0; v < n; v++ {
		if t.Present(v) {
			order[t.Post(v)] = int32(v)
		}
	}
	for _, v32 := range order {
		v := int(v32)
		var hh int32
		mn, mx := v32, v32
		for _, c := range t.Children(v) {
			if ix.height[c]+1 > hh {
				hh = ix.height[c] + 1
			}
			if ix.min[c] < mn {
				mn = ix.min[c]
			}
			if ix.max[c] > mx {
				mx = ix.max[c]
			}
		}
		ix.height[v], ix.min[v], ix.max[v] = hh, mn, mx
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

// bicon is deliberately outside the differential path: low-points depend on
// the global back-edge structure, so a single inserted back edge can flip
// bridges and articulation points arbitrarily far from the moved set —
// there is no subtree locality to patch along. Always a fresh build.
func (h *Handle) bicon() *biconIndex {
	if v := h.biconIx.p.Load(); v != nil {
		return v
	}
	h.biconIx.mu.Lock()
	defer h.biconIx.mu.Unlock()
	if v := h.biconIx.p.Load(); v != nil {
		return v
	}
	start := time.Now()
	an := bicon.Analyze(h.g, h.t, h.pseudo, nil)
	v := &biconIndex{an: an, bridges: an.Bridges(), artic: an.ArticulationPoints()}
	if h.observe != nil {
		h.observe(h.key.Graph, outcomeBuild, time.Since(start))
	}
	h.biconIx.p.Store(v)
	return v
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

// CheckSynced verifies the handle's materialized tree indexes against fresh
// ground-up builds over the same tree — the differential oracle of the
// patch path, mirroring dstruct.D's CheckSynced. A patched index must be
// structurally identical to the fresh build on every entry a query can
// reach: the LCA index passes lca.Index.CheckSynced (which also holds the
// rule for a tour shared across pure detachments), and every live vertex's
// lifting rows and aggregates equal the fresh ones. Entries at
// removed-vertex slots are intentionally stale in patched arrays and are
// excluded. Slots not yet built are skipped, so the oracle never triggers
// builds itself; nil means every built index is in sync.
func (h *Handle) CheckSynced() error {
	t := h.t
	if got := h.lcaIdx.p.Load(); got != nil {
		if err := got.CheckSynced(t); err != nil {
			return fmt.Errorf("snapquery: CheckSynced: %w", err)
		}
	}
	if got := h.liftIx.p.Load(); got != nil {
		want := buildLiftIndex(t)
		// A table shared across pure detachments may keep rows the (now
		// shallower) tree no longer needs; those must read -1 — above the
		// forest — at every live slot.
		if len(got.up) < len(want.up) {
			return fmt.Errorf("snapquery: CheckSynced: lift has %d rows, want at least %d", len(got.up), len(want.up))
		}
		for k := range got.up {
			for v := 0; v < t.N(); v++ {
				if !t.Present(v) {
					continue
				}
				w := int32(-1)
				if k < len(want.up) {
					w = want.up[k][v]
				}
				if got.up[k][v] != w {
					return fmt.Errorf("snapquery: CheckSynced: up[%d][%d] = %d, want %d",
						k, v, got.up[k][v], w)
				}
			}
		}
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
