package snapquery

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tree"
)

// coreDelta converts the maintainer's update delta into the snapquery form.
func coreDelta(d *core.Delta) Delta {
	return Delta{Moved: d.Moved, Removed: d.Removed, SameTree: d.SameTree}
}

// intner draws the choices of applyRandomUpdate: a *rand.Rand, or the
// fuzzer's byte decoder.
type intner interface{ Intn(n int) int }

// applyRandomUpdate applies one random valid update to dd, returning false
// when the drawn update was a no-op (e.g. no edge left to delete).
func applyRandomUpdate(t *testing.T, dd *core.DynamicDFS, rng intner) bool {
	t.Helper()
	g := dd.Frozen()
	slots := g.NumVertexSlots()
	pick := func() int {
		for {
			if v := rng.Intn(slots); g.IsVertex(v) {
				return v
			}
		}
	}
	switch rng.Intn(10) {
	case 0, 1, 2: // insert edge
		for try := 0; try < 20; try++ {
			u, v := pick(), pick()
			if u != v && !g.HasEdge(u, v) {
				if err := dd.InsertEdge(u, v); err != nil {
					t.Fatalf("InsertEdge(%d,%d): %v", u, v, err)
				}
				return true
			}
		}
		return false
	case 3, 4, 5: // delete edge
		edges := g.Edges()
		if len(edges) == 0 {
			return false
		}
		e := edges[rng.Intn(len(edges))]
		if err := dd.DeleteEdge(e.U, e.V); err != nil {
			t.Fatalf("DeleteEdge(%d,%d): %v", e.U, e.V, err)
		}
		return true
	case 6, 7, 8: // insert vertex (with a few random neighbors)
		var nbrs []int
		for i := rng.Intn(3); i > 0; i-- {
			if v := pick(); !slices.Contains(nbrs, v) {
				nbrs = append(nbrs, v)
			}
		}
		if _, err := dd.InsertVertex(nbrs); err != nil {
			t.Fatalf("InsertVertex(%v): %v", nbrs, err)
		}
		return true
	default: // delete vertex
		if g.NumVertices() <= 3 {
			return false
		}
		v := pick()
		if err := dd.DeleteVertex(v); err != nil {
			t.Fatalf("DeleteVertex(%d): %v", v, err)
		}
		return true
	}
}

// TestDifferentialOracleRandomMixed is the patch path's differential
// oracle: a random mixed update sequence (small headroom, so pseudo-root
// relocations break the chain mid-run) with every version's handle derived
// from its predecessor. Every patched index must be structurally identical
// to a fresh build (CheckSynced) and answer identically to naive
// recomputation (checkHandle).
func TestDifferentialOracleRandomMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.GnpConnected(120, 0.05, rng)
	dd := core.New(g, core.Options{RebuildD: true, Headroom: 4})
	h := New(dd.Frozen(), dd.Tree(), dd.PseudoRoot())
	h.Warm()
	var patched, fallbacks, broken int
	for i := 0; i < 150; i++ {
		if !applyRandomUpdate(t, dd, rng) {
			continue
		}
		var nh *Handle
		if d := dd.LastDelta(); d != nil {
			nh = NewDerived(h, dd.Frozen(), dd.Tree(), dd.PseudoRoot(), coreDelta(d))
		} else {
			broken++
			nh = New(dd.Frozen(), dd.Tree(), dd.PseudoRoot())
		}
		nh.observe = func(_ string, o buildOutcome, _ time.Duration) {
			switch o {
			case outcomePatch:
				patched++
			case outcomeFallback:
				fallbacks++
			}
		}
		nh.Warm()
		if err := nh.CheckSynced(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		checkHandle(t, nh, rng)
		h = nh
	}
	if patched == 0 {
		t.Error("random sequence never exercised the patch path")
	}
	if broken == 0 {
		t.Error("random sequence never broke the chain (expected pseudo-root relocations with Headroom=4)")
	}
	t.Logf("patched=%d fallbacks=%d chain-breaks=%d", patched, fallbacks, broken)
}

// TestDifferentialChurnFallback forces a high-churn update — deleting the
// chain's first tree edge reroots nearly the whole tree — and verifies the
// patch is declined (churn-ratio fallback) yet the fresh build stays
// correct.
func TestDifferentialChurnFallback(t *testing.T) {
	const n = 40
	dd := core.NewFullyDynamic(graph.Cycle(n))
	h := New(dd.Frozen(), dd.Tree(), dd.PseudoRoot())
	h.Warm()
	if err := dd.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	d := dd.LastDelta()
	if d == nil {
		t.Fatal("expected a delta from the tree-edge delete")
	}
	if 4*(len(d.Moved)+len(d.Removed)) <= dd.Tree().Live() {
		t.Fatalf("expected churn-heavy delta, got %d moved of %d live", len(d.Moved), dd.Tree().Live())
	}
	nh := NewDerived(h, dd.Frozen(), dd.Tree(), dd.PseudoRoot(), coreDelta(d))
	var fallbacks int
	nh.observe = func(_ string, o buildOutcome, _ time.Duration) {
		if o == outcomeFallback {
			fallbacks++
		}
		if o == outcomePatch {
			t.Error("churn-heavy delta was patched, want fallback")
		}
	}
	nh.Warm()
	if fallbacks != 3 {
		t.Fatalf("fallbacks=%d, want 3 (lca, lift, agg)", fallbacks)
	}
	if err := nh.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	checkHandle(t, nh, rand.New(rand.NewSource(7)))
}

// TestSameTreeSharesIndexes: a back-edge update leaves the tree object
// untouched, so the derived handle shares the parent's tree indexes
// outright — same pointers, zero rebuild — while biconnectivity (which
// depends on the changed edge set) is rebuilt fresh.
func TestSameTreeSharesIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.GnpConnected(80, 0.06, rng)
	dd := core.NewFullyDynamic(g)
	h := New(dd.Frozen(), dd.Tree(), dd.PseudoRoot())
	h.Warm()
	// Find a back-edge insert: any non-adjacent ancestor-descendant pair.
	tr := dd.Tree()
	var u, v int
	found := false
	for x := 0; x < g.NumVertexSlots() && !found; x++ {
		for y := 0; y < g.NumVertexSlots() && !found; y++ {
			if x != y && tr.Present(x) && tr.Present(y) && tr.IsAncestor(x, y) &&
				x != dd.PseudoRoot() && !dd.Frozen().HasEdge(x, y) {
				u, v = x, y
				found = true
			}
		}
	}
	if !found {
		t.Skip("no back-edge candidate in generated graph")
	}
	if err := dd.InsertEdge(u, v); err != nil {
		t.Fatal(err)
	}
	d := dd.LastDelta()
	if d == nil || !d.SameTree {
		t.Fatalf("delta = %+v, want SameTree", d)
	}
	if dd.Tree() != tr {
		t.Fatal("back-edge update replaced the tree object")
	}
	nh := NewDerived(h, dd.Frozen(), dd.Tree(), dd.PseudoRoot(), coreDelta(d))
	nh.Warm()
	if nh.lcaIdx.p.Load() != h.lcaIdx.p.Load() {
		t.Error("SameTree handle did not share the LCA index")
	}
	if nh.liftIx.p.Load() != h.liftIx.p.Load() {
		t.Error("SameTree handle did not share the lift index")
	}
	if nh.aggIx.p.Load() != h.aggIx.p.Load() {
		t.Error("SameTree handle did not share the agg index")
	}
	if nh.biconIx.p.Load() == h.biconIx.p.Load() {
		t.Error("SameTree handle shared the bicon index despite a changed edge set")
	}
	if err := nh.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	checkHandle(t, nh, rng)
}

// TestCacheEvictionMidChain: when the parent version ages out of the LRU
// before the child's first query, the child silently falls back to a fresh
// build — no panic, no patch — and a stale incarnation occupying the parent
// key after a graph drop/recreate collision is never patched against.
func TestCacheEvictionMidChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.GnpConnected(60, 0.08, rng)
	dd := core.NewFullyDynamic(g)
	c := NewCache(2)
	key := func(v uint64) Key { return Key{Graph: "g", Version: v} }

	parentTree := dd.Tree()
	c.Handle(key(0), dd.Frozen(), dd.Tree(), dd.PseudoRoot()).Warm()
	if dd.Frozen().HasEdge(0, 1) {
		if err := dd.DeleteEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	} else if err := dd.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	d := dd.LastDelta()
	if d == nil {
		t.Fatal("expected delta")
	}

	// Age version 0 out of the capacity-2 LRU before the child arrives.
	other := graph.GnpConnected(10, 0.3, rng)
	odd := core.NewFullyDynamic(other)
	c.Handle(Key{Graph: "o", Version: 0}, odd.Frozen(), odd.Tree(), odd.PseudoRoot())
	c.Handle(Key{Graph: "o", Version: 1}, odd.Frozen(), odd.Tree(), odd.PseudoRoot())
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}

	child := c.HandleDerived(key(1), dd.Frozen(), dd.Tree(), dd.PseudoRoot(),
		key(0), parentTree, coreDelta(d))
	if child.parent.Load() != nil {
		t.Fatal("child linked to an evicted parent")
	}
	child.Warm()
	if st := c.Stats(); st.Patches != 0 {
		t.Fatalf("patches=%d after parent eviction, want 0", st.Patches)
	}
	if err := child.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	checkHandle(t, child, rng)

	// Drop/recreate collision: a different incarnation now owns the parent
	// key. The identity check must refuse to link, let alone patch.
	c.DropGraph("g")
	g2 := graph.GnpConnected(60, 0.08, rng)
	dd2 := core.NewFullyDynamic(g2)
	c.Handle(key(0), dd2.Frozen(), dd2.Tree(), dd2.PseudoRoot()) // stale-looking incarnation under key 0
	child2 := c.HandleDerived(key(1), dd.Frozen(), dd.Tree(), dd.PseudoRoot(),
		key(0), parentTree, coreDelta(d))
	if child2.parent.Load() != nil {
		t.Fatal("child linked across incarnations")
	}
	child2.Warm()
	if st := c.Stats(); st.Patches != 0 {
		t.Fatalf("patches=%d across incarnations, want 0", st.Patches)
	}
	checkHandle(t, child2, rng)
}

// TestConcurrentChainPatching is the -race soak: one writer rotates
// versions through a shared cache while readers chain patched handles
// across retained versions. The singleflight contract is asserted by
// accounting: every version's four index slots must be patched-or-built
// exactly once, so patches+builds == 4 × created handles.
func TestConcurrentChainPatching(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := graph.GnpConnected(200, 0.03, rng)
	dd := core.New(g, core.Options{RebuildD: true, Headroom: 16})
	c := NewCache(32)

	type published struct {
		version    uint64
		g          *graph.Persistent
		t          *tree.Tree
		pseudo     int
		parent     uint64
		parentTree *tree.Tree
		delta      Delta
		hasDelta   bool
	}
	var latest atomic.Pointer[published]
	resolve := func(p *published) *Handle {
		key := Key{Graph: "g", Version: p.version}
		if p.hasDelta {
			return c.HandleDerived(key, p.g, p.t, p.pseudo,
				Key{Graph: "g", Version: p.parent}, p.parentTree, p.delta)
		}
		return c.Handle(key, p.g, p.t, p.pseudo)
	}
	first := &published{version: 0, g: dd.Frozen(), t: dd.Tree(), pseudo: dd.PseudoRoot()}
	latest.Store(first)
	resolve(first).Warm()

	const updates = 120
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := latest.Load()
				h := resolve(p)
				h.Warm()
				live := liveVertices(h.Tree(), h.PseudoRoot())
				u := live[rr.Intn(len(live))]
				v := live[rr.Intn(len(live))]
				if _, err := h.LCA(u, v); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.SubtreeAgg(u); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.KthAncestor(v, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}

	wrng := rand.New(rand.NewSource(7))
	prev := first
	for i := 0; i < updates; i++ {
		if !applyRandomUpdate(t, dd, wrng) {
			continue
		}
		p := &published{
			version: uint64(dd.Updates()),
			g:       dd.Frozen(), t: dd.Tree(), pseudo: dd.PseudoRoot(),
		}
		if d := dd.LastDelta(); d != nil {
			p.parent, p.parentTree, p.delta, p.hasDelta = prev.version, prev.t, coreDelta(d), true
		}
		latest.Store(p)
		prev = p
		// The writer doubles as a querier of its own publication, so every
		// version enters the cache (giving the next one a parent to patch)
		// and every created handle is warmed by its creator.
		resolve(p).Warm()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	st := c.Stats()
	// Warm() fills four slots per handle, each exactly once across all
	// concurrent warmers (the singleflight contract), and every handle
	// instance ever created — misses counts exactly those — was warmed by
	// its creator. Any double build or double patch breaks the equality.
	want := 4 * st.Misses
	if got := st.Patches + st.Builds; got != want {
		t.Fatalf("patches(%d)+builds(%d) = %d, want %d (4 × %d created handles)",
			st.Patches, st.Builds, got, want, st.Misses)
	}
	if st.Patches == 0 {
		t.Error("soak never exercised the patch path")
	}
	// The survivors must be coherent.
	h := resolve(latest.Load())
	h.Warm()
	if err := h.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	checkHandle(t, h, rng)
}
