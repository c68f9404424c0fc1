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
func randomLive(g *graph.Graph, rng *rand.Rand, skip map[int]bool) int {
	for {
		v := rng.Intn(g.NumVertexSlots())
		if g.IsVertex(v) && !skip[v] {
			return v
		}
	}
}

// patchAroundWalk records, on g and every d, a deleted base edge and an
// inserted edge touching the walk, plus a patch vertex adjacent to it. It
// returns the patch vertex.
func patchAroundWalk(g *graph.Graph, rng *rand.Rand, walk []int, onWalk map[int]bool, ds ...*D) int {
	for _, z := range walk {
		if u, ok := firstOffWalk(g.SortedNeighbors(z), onWalk); ok && g.DeleteEdge(u, z) == nil {
			for _, d := range ds {
				d.PatchDeleteEdge(u, z)
			}
			break
		}
	}
	for tries := 0; tries < 100; tries++ {
		u, z := randomLive(g, rng, onWalk), walk[rng.Intn(len(walk))]
		if !g.HasEdge(u, z) && g.InsertEdge(u, z) == nil {
			for _, d := range ds {
				d.PatchInsertEdge(u, z)
			}
			break
		}
	}
	nbrs := []int{walk[0], walk[len(walk)/2], randomLive(g, rng, onWalk)}
	pv, err := g.InsertVertex(nbrs)
	if err != nil {
		panic(err)
	}
	for _, d := range ds {
		d.PatchInsertVertex(pv, nbrs)
	}
	return pv
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
// exactly the answers and Stats of issuing its queries one by one, on a
// serial D and on a two-worker D.
func TestEdgeToWalkBatchSharedWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 8; trial++ {
		n := 600 + rng.Intn(400)
		g := graph.GnpConnected(n, 5.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		serial := Build(g, tr, nil)
		pooled := Build(g, tr, pram.NewMachineWithWorkers(g.NumVertices(), 2))

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
			pv = patchAroundWalk(g, rng, shared, onWalk, serial, pooled)
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
			case q%23 == 0: // large set, sharded on one-by-one calls
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
			bySource := q%5 == 2 && len(sources) < parallelSourceCutoff
			qs = append(qs, WalkQuery{Sources: sources, Walk: walk, FromEnd: rng.Intn(2) == 0, BySource: bySource})
		}

		var firstWant []WalkAnswer
		for name, d := range map[string]*D{"serial": serial, "pooled": pooled} {
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
						t.Fatalf("trial %d %s query %d: batch %v want %v", trial, name, i, got[i], want[i])
					}
				}
				if batchSt != oneSt {
					t.Fatalf("trial %d %s (%d queries): batch stats %+v, one by one %+v",
						trial, name, len(batch), batchSt, oneSt)
				}
				if len(batch) == len(qs) && pv >= 0 && batchSt.PatchScans == 0 {
					t.Fatalf("trial %d %s: no patch edge examined on a patched D", trial, name)
				}
				if len(batch) == len(qs) {
					if firstWant == nil {
						firstWant = want
					} else {
						for i := range want {
							if want[i] != firstWant[i] {
								t.Fatalf("trial %d query %d: %s %v, other D %v", trial, i, name, want[i], firstWant[i])
							}
						}
					}
				}
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
