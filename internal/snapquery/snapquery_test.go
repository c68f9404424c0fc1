package snapquery

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bicon"
	"repro/internal/graph"
	"repro/internal/tree"
)

// ---- Naive reference implementations (the ground truth every handle
// answer is compared against). ----

func naiveLCA(t *tree.Tree, u, v, pseudo int) int {
	for t.Level(u) > t.Level(v) {
		u = t.Parent[u]
	}
	for t.Level(v) > t.Level(u) {
		v = t.Parent[v]
	}
	for u != v {
		u, v = t.Parent[u], t.Parent[v]
	}
	if u == pseudo {
		return -1
	}
	return u
}

func naiveKth(t *tree.Tree, v, k, pseudo int) int {
	for ; k > 0; k-- {
		v = t.Parent[v]
		if v == tree.None || v == pseudo {
			return -1
		}
	}
	return v
}

func naiveAgg(t *tree.Tree, v int) Agg {
	vs := t.SubtreeVertices(v, nil)
	a := Agg{Size: len(vs), MinVertex: v, MaxVertex: v}
	for _, w := range vs {
		if w < a.MinVertex {
			a.MinVertex = w
		}
		if w > a.MaxVertex {
			a.MaxVertex = w
		}
		if d := t.Level(w) - t.Level(v); d > a.Height {
			a.Height = d
		}
	}
	return a
}

func naivePath(t *tree.Tree, u, v, pseudo int) []int {
	l := naiveLCA(t, u, v, pseudo)
	if l < 0 {
		return nil
	}
	var up []int
	for x := u; x != l; x = t.Parent[x] {
		up = append(up, x)
	}
	up = append(up, l)
	var down []int
	for x := v; x != l; x = t.Parent[x] {
		down = append(down, x)
	}
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

func liveVertices(t *tree.Tree, pseudo int) []int {
	var out []int
	for _, v := range t.Vertices() {
		if v != pseudo {
			out = append(out, v)
		}
	}
	return out
}

// checkHandle compares every handle answer against naive recomputation on
// the pinned snapshot.
func checkHandle(t *testing.T, h *Handle, rng *rand.Rand) {
	t.Helper()
	tr, g, pseudo := h.Tree(), h.Graph(), h.PseudoRoot()
	live := liveVertices(tr, pseudo)
	if len(live) == 0 {
		return
	}
	an := bicon.Analyze(g, tr, pseudo, nil)
	for trial := 0; trial < 40; trial++ {
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]

		got, err := h.LCA(u, v)
		if err != nil {
			t.Fatalf("LCA(%d,%d): %v", u, v, err)
		}
		if want := naiveLCA(tr, u, v, pseudo); got != want {
			t.Fatalf("LCA(%d,%d) = %d, naive %d", u, v, got, want)
		}

		k := rng.Intn(8)
		gotK, err := h.KthAncestor(u, k)
		if err != nil {
			t.Fatalf("KthAncestor(%d,%d): %v", u, k, err)
		}
		if want := naiveKth(tr, u, k, pseudo); gotK != want {
			t.Fatalf("KthAncestor(%d,%d) = %d, naive %d", u, k, gotK, want)
		}

		d := 1 + rng.Intn(tr.Level(u)+1)
		gotA, err := h.AncestorAtDepth(u, d)
		if err != nil {
			t.Fatalf("AncestorAtDepth(%d,%d): %v", u, d, err)
		}
		wantA := -1
		if d >= 1 && d <= tr.Level(u) {
			wantA = naiveKth(tr, u, tr.Level(u)-d, pseudo)
		}
		if gotA != wantA {
			t.Fatalf("AncestorAtDepth(%d,%d) = %d, naive %d", u, d, gotA, wantA)
		}

		gotAgg, err := h.SubtreeAgg(u)
		if err != nil {
			t.Fatalf("SubtreeAgg(%d): %v", u, err)
		}
		if want := naiveAgg(tr, u); gotAgg != want {
			t.Fatalf("SubtreeAgg(%d) = %+v, naive %+v", u, gotAgg, want)
		}
		if sz, _ := h.SubtreeSize(u); sz != gotAgg.Size {
			t.Fatalf("SubtreeSize(%d) = %d, agg size %d", u, sz, gotAgg.Size)
		}

		gotPath, err := h.TreePath(u, v)
		wantPath := naivePath(tr, u, v, pseudo)
		if wantPath == nil {
			if err == nil {
				t.Fatalf("TreePath(%d,%d) succeeded across components", u, v)
			}
		} else {
			if err != nil {
				t.Fatalf("TreePath(%d,%d): %v", u, v, err)
			}
			if len(gotPath) != len(wantPath) {
				t.Fatalf("TreePath(%d,%d) = %v, naive %v", u, v, gotPath, wantPath)
			}
			for i := range gotPath {
				if gotPath[i] != wantPath[i] {
					t.Fatalf("TreePath(%d,%d) = %v, naive %v", u, v, gotPath, wantPath)
				}
			}
		}

		gotArt, err := h.IsArticulation(u)
		if err != nil {
			t.Fatalf("IsArticulation(%d): %v", u, err)
		}
		if gotArt != an.IsArticulation(u) {
			t.Fatalf("IsArticulation(%d) = %v, fresh analysis %v", u, gotArt, an.IsArticulation(u))
		}

		gotC, err := h.BiconnectedComponentOf(u)
		if err != nil {
			t.Fatalf("BiconnectedComponentOf(%d): %v", u, err)
		}
		if gotC != an.ComponentOf(u) {
			t.Fatalf("BiconnectedComponentOf(%d) = %d, fresh %d", u, gotC, an.ComponentOf(u))
		}

		gotSame, err := h.SameBiconnectedComponent(u, v)
		if err != nil {
			t.Fatalf("SameBiconnectedComponent(%d,%d): %v", u, v, err)
		}
		wantSame := an.ComponentOf(u) >= 0 && an.ComponentOf(u) == an.ComponentOf(v)
		if gotSame != wantSame {
			t.Fatalf("SameBiconnectedComponent(%d,%d) = %v, fresh %v", u, v, gotSame, wantSame)
		}
	}

	// Whole-structure comparisons.
	wantBridges := an.Bridges()
	gotBridges := h.Bridges()
	if len(gotBridges) != len(wantBridges) {
		t.Fatalf("Bridges() = %v, fresh %v", gotBridges, wantBridges)
	}
	for i := range gotBridges {
		if gotBridges[i] != wantBridges[i] {
			t.Fatalf("Bridges() = %v, fresh %v", gotBridges, wantBridges)
		}
	}
	for _, e := range gotBridges {
		if br, err := h.IsBridge(e.U, e.V); err != nil || !br {
			t.Fatalf("IsBridge(%v) = %v, %v", e, br, err)
		}
	}
	wantArt := an.ArticulationPoints()
	gotArt := h.ArticulationPoints()
	if len(gotArt) != len(wantArt) {
		t.Fatalf("ArticulationPoints() = %v, fresh %v", gotArt, wantArt)
	}
	if h.NumBiconnectedComponents() != an.NumComponents() {
		t.Fatalf("NumBiconnectedComponents() = %d, fresh %d",
			h.NumBiconnectedComponents(), an.NumComponents())
	}
}

// TestDifferentialRandomGraphs: every handle answer equals naive
// recomputation across random graph shapes (connected, sparse with several
// components, path-heavy).
func TestDifferentialRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 12 + rng.Intn(60)
		var g *graph.Persistent
		switch trial % 3 {
		case 0:
			g = graph.GnpConnected(n, 0.15, rng)
		case 1:
			g = graph.Gnp(n, 1.5/float64(n), rng) // usually disconnected
		default:
			g = graph.Broom(n, n/2)
		}
		tr := baseline.StaticDFS(g)
		h := New(g, tr, g.NumVertexSlots())
		checkHandle(t, h, rng)
	}
}

// TestSingleflightBuildsOnce: a cached handle hammered by concurrent first
// readers builds its one index, bicon, exactly once (the LCA family reads
// the tree's own index, and SubtreeAgg scans the tree's pre-order).
func TestSingleflightBuildsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.GnpConnected(300, 0.05, rng)
	tr := baseline.StaticDFS(g)
	c := NewCache(4)
	h := c.Handle(Key{Graph: "g", Version: 1}, g, tr, g.NumVertexSlots())

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				u, v := r.Intn(300), r.Intn(300)
				if _, err := h.LCA(u, v); err != nil {
					panic(err)
				}
				if _, err := h.KthAncestor(u, r.Intn(5)); err != nil {
					panic(err)
				}
				if _, err := h.SubtreeAgg(v); err != nil {
					panic(err)
				}
				if _, err := h.IsArticulation(u); err != nil {
					panic(err)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Builds != 1 {
		t.Fatalf("index builds = %d, want exactly 1 (bicon)", st.Builds)
	}
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 0/1", st.Hits, st.Misses)
	}
}

// TestCacheLRUAndEvictionSafety: the LRU bounds resident versions, evicts
// in recency order, and eviction never invalidates a held handle.
func TestCacheLRUAndEvictionSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCache(2)
	type ver struct {
		g  *graph.Persistent
		tr *tree.Tree
		h  *Handle
	}
	var vers []ver
	for i := 0; i < 4; i++ {
		g := graph.GnpConnected(40, 0.12, rng)
		tr := baseline.StaticDFS(g)
		h := c.Handle(Key{Graph: "g", Version: uint64(i)}, g, tr, g.NumVertexSlots())
		h.Warm()
		vers = append(vers, ver{g, tr, h})
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Size != 2 {
		t.Fatalf("evictions=%d size=%d, want 2/2", st.Evictions, st.Size)
	}
	// The evicted handles (versions 0 and 1) still answer, identically to a
	// fresh recomputation on their pinned snapshots.
	for _, v := range vers[:2] {
		checkHandle(t, v.h, rng)
	}
	// Re-querying an evicted version is a miss that rebuilds — and evicts
	// the now-oldest resident version.
	h0b := c.Handle(Key{Graph: "g", Version: 0}, vers[0].g, vers[0].tr, vers[0].g.NumVertexSlots())
	if h0b == vers[0].h {
		t.Fatal("evicted handle returned on re-query (should be a fresh build)")
	}
	checkHandle(t, h0b, rng)
	st = c.Stats()
	if st.Misses != 5 || st.Evictions != 3 {
		t.Fatalf("misses=%d evictions=%d after requery, want 5/3", st.Misses, st.Evictions)
	}
	// A hit bumps recency: touch version 0, insert version 4, version 3
	// (not 0) should be evicted.
	c.Handle(Key{Graph: "g", Version: 0}, vers[0].g, vers[0].tr, vers[0].g.NumVertexSlots())
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("hits=%d, want 1", st.Hits)
	}
	g4 := graph.GnpConnected(40, 0.12, rng)
	c.Handle(Key{Graph: "g", Version: 4}, g4, baseline.StaticDFS(g4), g4.NumVertexSlots())
	if got := c.Handle(Key{Graph: "g", Version: 0}, vers[0].g, vers[0].tr, vers[0].g.NumVertexSlots()); got != h0b {
		t.Fatal("recently-used version 0 was evicted instead of version 3")
	}
}

// TestCacheDropGraphAndIncarnations: DropGraph purges all of a graph's
// versions, and a (graph, version) collision across incarnations is
// detected via snapshot identity instead of serving stale indexes.
func TestCacheDropGraphAndIncarnations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := NewCache(8)
	gA := graph.GnpConnected(30, 0.15, rng)
	trA := baseline.StaticDFS(gA)
	hA := c.Handle(Key{Graph: "a", Version: 1}, gA, trA, gA.NumVertexSlots())
	gB := graph.GnpConnected(30, 0.15, rng)
	trB := baseline.StaticDFS(gB)
	c.Handle(Key{Graph: "b", Version: 1}, gB, trB, gB.NumVertexSlots())

	c.DropGraph("a")
	st := c.Stats()
	if st.Size != 1 || st.Dropped != 1 || st.Evictions != 0 {
		t.Fatalf("size=%d dropped=%d evictions=%d after DropGraph, want 1/1/0", st.Size, st.Dropped, st.Evictions)
	}
	if _, err := hA.LCA(0, 1); err != nil {
		t.Fatalf("held handle broken by DropGraph: %v", err)
	}

	// Same key, different snapshot (re-created incarnation): must not alias.
	gA2 := graph.GnpConnected(30, 0.15, rng)
	trA2 := baseline.StaticDFS(gA2)
	hA2 := c.Handle(Key{Graph: "a", Version: 1}, gA2, trA2, gA2.NumVertexSlots())
	if hA2.Tree() != trA2 {
		t.Fatal("stale incarnation served from cache")
	}
	hA3 := c.Handle(Key{Graph: "a", Version: 1}, gA2, trA2, gA2.NumVertexSlots())
	if hA3 != hA2 {
		t.Fatal("same incarnation not shared")
	}
	// The re-created incarnation evicted its stale predecessor in place:
	// counted under Dropped, not capacity Evictions.
	gA3 := graph.GnpConnected(30, 0.15, rng)
	trA3 := baseline.StaticDFS(gA3)
	if h := c.Handle(Key{Graph: "a", Version: 1}, gA3, trA3, gA3.NumVertexSlots()); h == hA2 {
		t.Fatal("colliding incarnation aliased")
	}
	st = c.Stats()
	if st.Dropped != 2 || st.Evictions != 0 {
		t.Fatalf("dropped=%d evictions=%d after incarnation collision, want 2/0", st.Dropped, st.Evictions)
	}
}
