package dstruct

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
)

// treePathWalk returns the vertex sequence of the T-path from x up to
// LCA(x, y) and down to y: two monotone runs (one when x and y are
// comparable).
func treePathWalk(tr *tree.Tree, x, y int) []int {
	anc := map[int]bool{}
	for a := x; ; a = tr.Parent[a] {
		anc[a] = true
		if a == tr.Root {
			break
		}
	}
	var down []int
	l := y
	for !anc[l] {
		down = append(down, l)
		l = tr.Parent[l]
	}
	var walk []int
	for a := x; a != l; a = tr.Parent[a] {
		walk = append(walk, a)
	}
	walk = append(walk, l)
	for i := len(down) - 1; i >= 0; i-- {
		walk = append(walk, down[i])
	}
	return walk
}

// randomLive returns a uniformly random live vertex of g outside skip.
func randomLive(g *graph.Persistent, rng *rand.Rand, skip map[int]bool) int {
	for {
		v := rng.Intn(g.NumVertexSlots())
		if g.IsVertex(v) && !skip[v] {
			return v
		}
	}
}

// patchAroundWalk records, on g and every d, a deleted base edge and an
// inserted edge touching the walk, plus a patch vertex adjacent to it. It
// returns the updated graph and the patch vertex.
func patchAroundWalk(g *graph.Persistent, rng *rand.Rand, walk []int, onWalk map[int]bool, ds ...*D) (*graph.Persistent, int) {
	for _, z := range walk {
		if u, ok := firstOffWalk(g.SortedNeighbors(z), onWalk); ok {
			ng, err := g.DeleteEdge(u, z)
			if err != nil {
				panic(err)
			}
			g = ng
			for _, d := range ds {
				d.PatchDeleteEdge(u, z)
			}
			break
		}
	}
	for tries := 0; tries < 100; tries++ {
		u, z := randomLive(g, rng, onWalk), walk[rng.Intn(len(walk))]
		if ng, err := g.InsertEdge(u, z); err == nil {
			g = ng
			for _, d := range ds {
				d.PatchInsertEdge(u, z)
			}
			break
		}
	}
	nbrs := []int{walk[0], walk[len(walk)/2], randomLive(g, rng, onWalk)}
	g, pv, err := g.InsertVertex(nbrs)
	if err != nil {
		panic(err)
	}
	for _, d := range ds {
		d.PatchInsertVertex(pv, nbrs)
	}
	return g, pv
}

func firstOffWalk(nbrs []int, onWalk map[int]bool) (int, bool) {
	for _, u := range nbrs {
		if !onWalk[u] {
			return u, true
		}
	}
	return 0, false
}

// TestEdgeToWalkBatchSharedWalks pins the per-batch walk preparation: a
// batch shaped like the rerooting engine's (many small-source queries on
// one walk slice, plus sub-slices of it, distinct walks, empty walks and
// source sets, BySource queries, patch edges and a patch vertex) must give
// exactly the answers and Stats of issuing its queries one by one.
func TestEdgeToWalkBatchSharedWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 8; trial++ {
		n := 600 + rng.Intn(400)
		g := graph.GnpConnected(n, 5.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		d := Build(g, tr, pram.NewMachine(g.NumVertices()))

		shared := treePathWalk(tr, randomLive(g, rng, nil), randomLive(g, rng, nil))
		walks := [][]int{shared, shared[:(len(shared)+1)/2], shared[len(shared)/2:]}
		for k := 0; k < 3; k++ {
			walks = append(walks, treePathWalk(tr, randomLive(g, rng, nil), randomLive(g, rng, nil)))
		}
		onWalk := map[int]bool{}
		for _, w := range walks {
			for _, v := range w {
				onWalk[v] = true
			}
		}
		pv := -1
		if trial%2 == 1 {
			g, pv = patchAroundWalk(g, rng, shared, onWalk, d)
			walks = append(walks, append(append([]int(nil), shared...), pv))
			onWalk[pv] = true
		}

		var qs []WalkQuery
		for q := 0; q < 200; q++ {
			walk := shared
			if q%4 == 3 {
				walk = walks[rng.Intn(len(walks))]
			}
			var sources []int
			switch {
			case q%17 == 0: // empty source set
			case q%23 == 0: // every vertex off the walks
				sources = bigSourceSet(g, onWalk)
			default:
				for k := 1 + rng.Intn(8); k > 0; k-- {
					sources = append(sources, randomLive(g, rng, onWalk))
				}
			}
			if pv >= 0 && q%7 == 0 && q%4 != 3 { // the patch vertex as a source on shared
				sources = append(sources, pv)
			}
			if q%31 == 0 {
				walk = nil
			}
			qs = append(qs, WalkQuery{Sources: sources, Walk: walk, FromEnd: rng.Intn(2) == 0, BySource: q%5 == 2})
		}

		var firstWant []WalkAnswer
		for _, batch := range [][]WalkQuery{qs, qs[:1], qs[23:24]} {
			var oneSt, batchSt Stats
			want := make([]WalkAnswer, len(batch))
			for i, q := range batch {
				if q.BySource {
					want[i].Hit, want[i].OK = d.EdgeToWalkBySource(q.Sources, q.Walk, q.FromEnd, &oneSt)
				} else {
					want[i].Hit, want[i].OK = d.EdgeToWalk(q.Sources, q.Walk, q.FromEnd, &oneSt)
				}
			}
			got := d.EdgeToWalkBatch(batch, &batchSt)
			for i := range batch {
				if got[i] != want[i] {
					t.Fatalf("trial %d query %d: batch %v want %v", trial, i, got[i], want[i])
				}
			}
			if batchSt != oneSt {
				t.Fatalf("trial %d (%d queries): batch stats %+v, one by one %+v",
					trial, len(batch), batchSt, oneSt)
			}
			if len(batch) == len(qs) {
				if pv >= 0 && batchSt.PatchScans == 0 {
					t.Fatalf("trial %d: no patch edge examined on a patched D", trial)
				}
				firstWant = want
			}
		}
		hits := 0
		for _, a := range firstWant {
			if a.OK {
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("trial %d: no query hit; the batch exercises nothing", trial)
		}
	}
}

// applyRandomPatches applies random updates to g, records the same patches
// on every d, and returns the updated graph.
func applyRandomPatches(g *graph.Persistent, rng *rand.Rand, ds ...*D) *graph.Persistent {
	for k := 0; k < 6; k++ {
		switch rng.Intn(4) {
		case 0:
			if e, ok := graph.RandomEdgeNotIn(g, rng); ok {
				if ng, err := g.InsertEdge(e.U, e.V); err == nil {
					g = ng
					for _, d := range ds {
						d.PatchInsertEdge(e.U, e.V)
					}
				}
			}
		case 1:
			if e, ok := graph.RandomExistingEdge(g, rng); ok {
				if ng, err := g.DeleteEdge(e.U, e.V); err == nil {
					g = ng
					for _, d := range ds {
						d.PatchDeleteEdge(e.U, e.V)
					}
				}
			}
		case 2:
			deg := 1 + rng.Intn(4)
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
				for _, d := range ds {
					d.PatchInsertVertex(v, nbrs)
				}
			}
		case 3:
			v := rng.Intn(g.NumVertexSlots())
			if g.IsVertex(v) && g.NumVertices() > 3 {
				nbrs := g.SortedNeighbors(v)
				if ng, err := g.DeleteVertex(v); err == nil {
					g = ng
					for _, d := range ds {
						d.PatchDeleteVertex(v, nbrs)
					}
				}
			}
		}
	}
	return g
}

// bigSourceSet returns every live vertex off the walk.
func bigSourceSet(g *graph.Persistent, onWalk map[int]bool) []int {
	var sources []int
	for v := 0; v < g.NumVertexSlots(); v++ {
		if g.IsVertex(v) && !onWalk[v] {
			sources = append(sources, v)
		}
	}
	return sources
}

// TestEdgeToWalkBatchMatchesSequentialCalls checks that a batch of large
// and small (possibly empty) source sets, on a patched and an unpatched D,
// answers exactly like the same queries issued one by one.
func TestEdgeToWalkBatchMatchesSequentialCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 10; trial++ {
		n := 600 + rng.Intn(400)
		g := graph.GnpConnected(n, 5.0/float64(n), rng)
		d := Build(g, baseline.StaticDFS(g), pram.NewMachine(g.NumVertices()))
		if trial%2 == 1 {
			g = applyRandomPatches(g, rng, d)
		}
		var qs []WalkQuery
		for q := 0; q < 12; q++ {
			walk, onWalk := randomWalkInTree(g, rng)
			if len(walk) == 0 {
				continue
			}
			sources := bigSourceSet(g, onWalk)
			if q%3 == 0 {
				sources = sources[:rng.Intn(len(sources)+1)] // small and empty sets too
			}
			qs = append(qs, WalkQuery{
				Sources:  sources,
				Walk:     walk,
				FromEnd:  rng.Intn(2) == 0,
				BySource: q%4 == 3,
			})
		}
		got := d.EdgeToWalkBatch(qs, nil)
		if len(got) != len(qs) {
			t.Fatalf("trial %d: %d answers for %d queries", trial, len(got), len(qs))
		}
		for i, q := range qs {
			var want WalkAnswer
			if q.BySource {
				want.Hit, want.OK = d.EdgeToWalkBySource(q.Sources, q.Walk, q.FromEnd, nil)
			} else {
				want.Hit, want.OK = d.EdgeToWalk(q.Sources, q.Walk, q.FromEnd, nil)
			}
			if got[i] != want {
				t.Fatalf("trial %d query %d (bySource=%v): batch %v want %v",
					trial, i, q.BySource, got[i], want)
			}
		}
	}
}
