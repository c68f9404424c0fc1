package snapquery

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestSingleflightBuildsOnce: a handle hammered by concurrent first
// readers builds its one index, bicon, exactly once (the LCA family reads
// the tree's own index, and SubtreeAgg scans the tree's pre-order).
func TestSingleflightBuildsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.GnpConnected(300, 0.05, rng)
	tr := baseline.StaticDFS(g)
	var builds atomic.Int64
	h := NewObserved(Key{Graph: "g", Version: 1}, g, tr, g.NumVertexSlots(), func(time.Duration) { builds.Add(1) })

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
	if got := builds.Load(); got != 1 {
		t.Fatalf("index builds = %d, want exactly 1 (bicon)", got)
	}
}
