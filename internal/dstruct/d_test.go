package dstruct

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/pram"
)

// naiveEdgeToWalk is the brute-force reference: scan every (source, walk)
// pair against the current graph.
func naiveEdgeToWalk(g *graph.Persistent, sources, walk []int, fromEnd bool) (Hit, bool) {
	pos := map[int]int{}
	for i, v := range walk {
		pos[v] = i
	}
	best := Hit{ZPos: -1}
	have := false
	for _, u := range sources {
		for _, z := range g.SortedNeighbors(u) {
			p, on := pos[z]
			if !on {
				continue
			}
			h := Hit{U: u, Z: z, ZPos: p}
			if !have {
				best, have = h, true
				continue
			}
			if h.ZPos != best.ZPos {
				if (fromEnd && h.ZPos > best.ZPos) || (!fromEnd && h.ZPos < best.ZPos) {
					best = h
				}
			} else if h.U < best.U {
				best = h
			}
		}
	}
	return best, have
}

// randomWalkInTree returns a tree path of t as an explicit vertex sequence:
// a descendant-to-ancestor walk from a random vertex.
func randomWalkInTree(g *graph.Persistent, rng *rand.Rand) ([]int, map[int]bool) {
	t := baseline.StaticDFS(g)
	n := g.NumVertexSlots()
	v := rng.Intn(n)
	for !g.IsVertex(v) {
		v = rng.Intn(n)
	}
	var walk []int
	onWalk := map[int]bool{}
	for x := v; x != t.Root; x = t.Parent[x] {
		walk = append(walk, x)
		onWalk[x] = true
		if rng.Float64() < 0.2 {
			break
		}
	}
	return walk, onWalk
}

func TestEdgeToWalkMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		n := 10 + rng.Intn(40)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		d := Build(g, tr, nil)
		walk, onWalk := randomWalkInTree(g, rng)
		if len(walk) == 0 {
			continue
		}
		var sources []int
		for v := 0; v < n; v++ {
			if !onWalk[v] && rng.Float64() < 0.5 {
				sources = append(sources, v)
			}
		}
		for _, fromEnd := range []bool{true, false} {
			got, gok := d.EdgeToWalk(sources, walk, fromEnd, nil)
			want, wok := naiveEdgeToWalk(g, sources, walk, fromEnd)
			if gok != wok {
				t.Fatalf("trial %d fromEnd=%v: ok=%v want %v (walk=%v sources=%v)",
					trial, fromEnd, gok, wok, walk, sources)
			}
			if gok && got.ZPos != want.ZPos {
				t.Fatalf("trial %d fromEnd=%v: got %v want %v", trial, fromEnd, got, want)
			}
			if gok && !g.HasEdge(got.U, got.Z) {
				t.Fatalf("trial %d: returned non-edge %v", trial, got)
			}
		}
	}
}

func TestEdgeToWalkWithPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 150; trial++ {
		n := 10 + rng.Intn(30)
		g := graph.GnpConnected(n, 4.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		d := Build(g, tr, nil)
		// Apply up to 4 random patches to graph and D in lockstep.
		for k := 0; k < 1+rng.Intn(4); k++ {
			switch rng.Intn(4) {
			case 0:
				if e, ok := graph.RandomEdgeNotIn(g, rng); ok {
					if ng, err := g.InsertEdge(e.U, e.V); err == nil {
						g = ng
						d.PatchInsertEdge(e.U, e.V)
					}
				}
			case 1:
				if e, ok := graph.RandomExistingEdge(g, rng); ok {
					if ng, err := g.DeleteEdge(e.U, e.V); err == nil {
						g = ng
						d.PatchDeleteEdge(e.U, e.V)
					}
				}
			case 2:
				deg := 1 + rng.Intn(3)
				var nbrs []int
				seen := map[int]bool{}
				for len(nbrs) < deg {
					w := rng.Intn(g.NumVertexSlots())
					if g.IsVertex(w) && !seen[w] {
						seen[w] = true
						nbrs = append(nbrs, w)
					}
				}
				if ng, v, err := g.InsertVertex(nbrs); err == nil {
					g = ng
					d.PatchInsertVertex(v, nbrs)
				}
			case 3:
				v := rng.Intn(g.NumVertexSlots())
				if g.IsVertex(v) && g.NumVertices() > 3 {
					nbrs := g.SortedNeighbors(v)
					if ng, err := g.DeleteVertex(v); err == nil {
						g = ng
						d.PatchDeleteVertex(v, nbrs)
					}
				}
			}
		}
		// Walks come from a fresh DFS tree of the *updated* graph, so runs
		// exercise the fragment decomposition (tree edges of the new tree
		// need not be monotone in the base tree).
		walk, onWalk := randomWalkInTree(g, rng)
		if len(walk) == 0 {
			continue
		}
		var sources []int
		for v := 0; v < g.NumVertexSlots(); v++ {
			if g.IsVertex(v) && !onWalk[v] && rng.Float64() < 0.5 {
				sources = append(sources, v)
			}
		}
		for _, fromEnd := range []bool{true, false} {
			got, gok := d.EdgeToWalk(sources, walk, fromEnd, nil)
			want, wok := naiveEdgeToWalk(g, sources, walk, fromEnd)
			if gok != wok || (gok && got.ZPos != want.ZPos) {
				t.Fatalf("trial %d fromEnd=%v: got %v/%v want %v/%v",
					trial, fromEnd, got, gok, want, wok)
			}
			if gok && !g.HasEdge(got.U, got.Z) {
				t.Fatalf("trial %d: returned stale edge %v", trial, got)
			}
		}
	}
}

func TestEdgeToWalkBySource(t *testing.T) {
	// Path graph 0-1-2-3-4 with extra edge (0,3): walk = [3,2], sources in
	// order [4, 0]: source 4 has edge to 3 -> picked first.
	g, err := graph.Path(5).InsertEdge(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := baseline.StaticDFS(g)
	d := Build(g, tr, nil)
	h, ok := d.EdgeToWalkBySource([]int{4, 0}, []int{3, 2}, true, nil)
	if !ok || h.U != 4 || h.Z != 3 {
		t.Fatalf("hit=%v ok=%v, want U=4 Z=3", h, ok)
	}
	// Source 0 first: its hit (0,3) wins even though 4 also connects.
	h, ok = d.EdgeToWalkBySource([]int{0, 4}, []int{3, 2}, true, nil)
	if !ok || h.U != 0 {
		t.Fatalf("hit=%v ok=%v, want U=0", h, ok)
	}
	// Source with no edge to the walk is skipped.
	if _, ok = d.EdgeToWalkBySource([]int{4}, []int{1}, true, nil); ok {
		t.Fatal("source 4 has no edge to vertex 1")
	}
}

func TestSplitRunCountFullyDynamic(t *testing.T) {
	// A walk that is a monotone base-tree path must be a single run.
	g := graph.Path(8)
	tr := baseline.StaticDFS(g)
	d := Build(g, tr, nil)
	walk := []int{5, 4, 3, 2}
	if c := d.SplitRunCount(walk); c != 1 {
		t.Fatalf("monotone walk split into %d runs, want 1", c)
	}
	// A bent path (down then up through an LCA) is two runs.
	g2 := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 3, V: 4}})
	tr2 := baseline.StaticDFS(g2)
	d2 := Build(g2, tr2, nil)
	bent := []int{2, 1, 3, 4}
	if c := d2.SplitRunCount(bent); c != 2 {
		t.Fatalf("bent walk split into %d runs, want 2", c)
	}
}

func TestPatchVertexOnWalk(t *testing.T) {
	// Inserted vertex appears on a walk as a singleton run reachable only
	// through patch adjacency.
	g := graph.Path(4)
	tr := baseline.StaticDFS(g)
	d := Build(g, tr, nil)
	_, v, err := g.InsertVertex([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	d.PatchInsertVertex(v, []int{1, 3})
	walk := []int{1, v} // tree edge (1,v) hop: run split at the patch vertex
	if c := d.SplitRunCount(walk); c != 2 {
		t.Fatalf("walk through patch vertex: %d runs, want 2", c)
	}
	h, ok := d.EdgeToWalk([]int{3}, walk, true, nil)
	if !ok || h.Z != v || h.U != 3 {
		t.Fatalf("hit=%v ok=%v, want (3->%d)", h, ok, v)
	}
}

func TestDeletedEdgeSkipped(t *testing.T) {
	// Star center 0; delete (0,2); query from 2 must not see 0.
	g := graph.Star(5)
	tr := baseline.StaticDFS(g)
	d := Build(g, tr, nil)
	if _, err := g.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	d.PatchDeleteEdge(0, 2)
	if _, ok := d.EdgeToWalk([]int{2}, []int{0}, true, nil); ok {
		t.Fatal("deleted edge (0,2) still reported")
	}
	if _, ok := d.EdgeToWalk([]int{3}, []int{0}, true, nil); !ok {
		t.Fatal("surviving edge (0,3) not found")
	}
}

func TestInsertedThenDeletedEdge(t *testing.T) {
	g := graph.Path(4)
	tr := baseline.StaticDFS(g)
	d := Build(g, tr, nil)
	d.PatchInsertEdge(0, 3)
	if h, ok := d.EdgeToWalk([]int{3}, []int{0}, true, nil); !ok || h.Z != 0 {
		t.Fatalf("inserted edge not visible: %v %v", h, ok)
	}
	d.PatchDeleteEdge(0, 3)
	if _, ok := d.EdgeToWalk([]int{3}, []int{0}, true, nil); ok {
		t.Fatal("edge visible after insert+delete")
	}
	if d.NumPatches() != 2 {
		t.Fatalf("NumPatches=%d want 2", d.NumPatches())
	}
}

func TestBuildAccountingAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := graph.GnpConnected(100, 0.1, rng)
	tr := baseline.StaticDFS(g)
	mach := pram.NewMachine(2 * g.NumEdges())
	d := Build(g, tr, mach)
	if mach.Depth() == 0 {
		t.Fatal("Build charged no depth")
	}
	// O(m) size: adjacency copies = 2m words. The order keys are the tree's
	// own post-order labels, so D holds no copy of them.
	if w := d.SizeWords(); w != int64(2*g.NumEdges()) {
		t.Fatalf("SizeWords=%d want %d", w, 2*g.NumEdges())
	}
	// A maintainer without D hands out a nil D, which occupies nothing.
	if w := (*D)(nil).SizeWords(); w != 0 {
		t.Fatalf("nil D SizeWords=%d want 0", w)
	}
}
