package dstruct

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/pram"
)

// Differential tests: the worker-pool execution of the EdgeToWalk family
// must return byte-identical Hits — including (ZPos, smallest-U) tie-breaks
// — to the serial path. Machines are built with an explicit worker count so
// the sharded code paths run even on single-core hosts, and `go test -race`
// checks the shard interleavings.

// buildPair returns two Ds over the same (g, t): one serial (nil machine)
// and one whose queries run on a forced 8-worker pool.
func buildPair(g *graph.Graph, rng *rand.Rand) (serial, parallel *D, _ *graph.Graph) {
	tr := baseline.StaticDFS(g)
	serial = Build(g, tr, nil)
	parallel = Build(g, tr, pram.NewMachineWithWorkers(g.NumVertices(), 8))
	return serial, parallel, g
}

// applyRandomPatches mutates g and records the same patches on every d.
func applyRandomPatches(g *graph.Graph, rng *rand.Rand, ds ...*D) {
	for k := 0; k < 6; k++ {
		switch rng.Intn(4) {
		case 0:
			if e, ok := graph.RandomEdgeNotIn(g, rng); ok {
				if g.InsertEdge(e.U, e.V) == nil {
					for _, d := range ds {
						d.PatchInsertEdge(e.U, e.V)
					}
				}
			}
		case 1:
			if e, ok := graph.RandomExistingEdge(g, rng); ok {
				if g.DeleteEdge(e.U, e.V) == nil {
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
			if v, err := g.InsertVertex(nbrs); err == nil {
				for _, d := range ds {
					d.PatchInsertVertex(v, nbrs)
				}
			}
		case 3:
			v := rng.Intn(g.NumVertexSlots())
			if g.IsVertex(v) && g.NumVertices() > 3 {
				nbrs := g.SortedNeighbors(v)
				if g.DeleteVertex(v) == nil {
					for _, d := range ds {
						d.PatchDeleteVertex(v, nbrs)
					}
				}
			}
		}
	}
}

// bigSourceSet returns every live vertex off the walk — well above
// parallelSourceCutoff for the graph sizes used here, so the sharded path
// actually runs.
func bigSourceSet(g *graph.Graph, onWalk map[int]bool) []int {
	var sources []int
	for v := 0; v < g.NumVertexSlots(); v++ {
		if g.IsVertex(v) && !onWalk[v] {
			sources = append(sources, v)
		}
	}
	return sources
}

func TestParallelEdgeToWalkMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 12; trial++ {
		n := 900 + rng.Intn(600)
		g := graph.GnpConnected(n, 5.0/float64(n), rng)
		serial, parallel, _ := buildPair(g, rng)
		if trial%2 == 1 {
			applyRandomPatches(g, rng, serial, parallel)
		}
		for q := 0; q < 8; q++ {
			walk, onWalk := randomWalkInTree(g, rng)
			if len(walk) == 0 {
				continue
			}
			sources := bigSourceSet(g, onWalk)
			if len(sources) < parallelSourceCutoff {
				t.Fatalf("trial %d: %d sources does not exercise the parallel path", trial, len(sources))
			}
			for _, fromEnd := range []bool{true, false} {
				hs, oks := serial.EdgeToWalk(sources, walk, fromEnd, nil)
				hp, okp := parallel.EdgeToWalk(sources, walk, fromEnd, nil)
				if oks != okp || hs != hp {
					t.Fatalf("trial %d fromEnd=%v: serial %v/%v parallel %v/%v",
						trial, fromEnd, hs, oks, hp, okp)
				}
				if oks && !g.HasEdge(hs.U, hs.Z) {
					t.Fatalf("trial %d: hit %v is not an edge", trial, hs)
				}
			}
		}
	}
}

func TestParallelEdgeToWalkBySourceMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 12; trial++ {
		n := 900 + rng.Intn(600)
		g := graph.GnpConnected(n, 5.0/float64(n), rng)
		serial, parallel, _ := buildPair(g, rng)
		if trial%2 == 1 {
			applyRandomPatches(g, rng, serial, parallel)
		}
		for q := 0; q < 8; q++ {
			walk, onWalk := randomWalkInTree(g, rng)
			if len(walk) == 0 {
				continue
			}
			sources := bigSourceSet(g, onWalk)
			// Shuffle so the "first source in order" pick is nontrivial.
			rng.Shuffle(len(sources), func(i, j int) {
				sources[i], sources[j] = sources[j], sources[i]
			})
			for _, fromEnd := range []bool{true, false} {
				hs, oks := serial.EdgeToWalkBySource(sources, walk, fromEnd, nil)
				hp, okp := parallel.EdgeToWalkBySource(sources, walk, fromEnd, nil)
				if oks != okp || hs != hp {
					t.Fatalf("trial %d fromEnd=%v: serial %v/%v parallel %v/%v",
						trial, fromEnd, hs, oks, hp, okp)
				}
			}
		}
	}
}

func TestEdgeToWalkBatchMatchesSequentialCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 10; trial++ {
		n := 600 + rng.Intn(400)
		g := graph.GnpConnected(n, 5.0/float64(n), rng)
		serial, parallel, _ := buildPair(g, rng)
		if trial%2 == 1 {
			applyRandomPatches(g, rng, serial, parallel)
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
		got := parallel.EdgeToWalkBatch(qs, nil)
		if len(got) != len(qs) {
			t.Fatalf("trial %d: %d answers for %d queries", trial, len(got), len(qs))
		}
		for i, q := range qs {
			var want WalkAnswer
			if q.BySource {
				want.Hit, want.OK = serial.EdgeToWalkBySource(q.Sources, q.Walk, q.FromEnd, nil)
			} else {
				want.Hit, want.OK = serial.EdgeToWalk(q.Sources, q.Walk, q.FromEnd, nil)
			}
			if got[i] != want {
				t.Fatalf("trial %d query %d (bySource=%v): batch %v want %v",
					trial, i, q.BySource, got[i], want)
			}
		}
	}
}

func TestRebuildMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	mach := pram.NewMachineWithWorkers(4096, 8)
	d := &D{}
	for trial := 0; trial < 10; trial++ {
		n := 300 + rng.Intn(500)
		g := graph.GnpConnected(n, 4.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		if trial == 0 {
			d = Build(g, tr, mach)
		} else {
			// Dirty the structure with patches (their graph consistency is
			// irrelevant — Rebuild discards them), then rebuild in place
			// over a completely different graph, as installTree does per
			// update.
			d.PatchInsertEdge(0, 1)
			d.PatchInsertVertex(100000+trial, []int{0, 2})
			d.PatchDeleteEdge(1, 2)
			d.Rebuild(g, tr, mach)
		}
		if d.NumPatches() != 0 {
			t.Fatalf("trial %d: rebuild left %d patches", trial, d.NumPatches())
		}
		fresh := Build(g, tr, nil)
		for q := 0; q < 6; q++ {
			walk, onWalk := randomWalkInTree(g, rng)
			if len(walk) == 0 {
				continue
			}
			sources := bigSourceSet(g, onWalk)
			for _, fromEnd := range []bool{true, false} {
				hr, okr := d.EdgeToWalk(sources, walk, fromEnd, nil)
				hf, okf := fresh.EdgeToWalk(sources, walk, fromEnd, nil)
				if okr != okf || hr != hf {
					t.Fatalf("trial %d fromEnd=%v: rebuilt %v/%v fresh %v/%v",
						trial, fromEnd, hr, okr, hf, okf)
				}
			}
		}
	}
}
