package dstruct

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// Property (testing/quick): EdgeToWalk agrees with the brute-force scan for
// arbitrary seeds, both directions, with and without random patches.
func TestQuickEdgeToWalk(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + int(uint(seed)%40)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		d := Build(g, tr, nil)
		// Optional patches (half the seeds).
		if seed%2 == 0 {
			for k := 0; k < 3; k++ {
				if e, ok := graph.RandomEdgeNotIn(g, rng); ok && k%2 == 0 {
					if ng, err := g.InsertEdge(e.U, e.V); err == nil {
						g = ng
						d.PatchInsertEdge(e.U, e.V)
					}
				} else if e, ok := graph.RandomExistingEdge(g, rng); ok {
					if ng, err := g.DeleteEdge(e.U, e.V); err == nil {
						g = ng
						d.PatchDeleteEdge(e.U, e.V)
					}
				}
			}
		}
		walk, onWalk := randomWalkInTree(g, rng)
		if len(walk) == 0 {
			return true
		}
		var sources []int
		for v := 0; v < g.NumVertexSlots(); v++ {
			if g.IsVertex(v) && !onWalk[v] && rng.Float64() < 0.6 {
				sources = append(sources, v)
			}
		}
		for _, fromEnd := range []bool{true, false} {
			got, gok := d.EdgeToWalk(sources, walk, fromEnd, nil)
			want, wok := naiveEdgeToWalk(g, sources, walk, fromEnd)
			if gok != wok {
				return false
			}
			if gok && (got.ZPos != want.ZPos || !g.HasEdge(got.U, got.Z)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: ResetPatches returns D to a state equivalent to freshly built.
func TestQuickResetPatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + int(uint(seed)%30)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		d := Build(g, tr, nil)
		fresh := Build(g, tr, nil)
		// Patch arbitrarily, then reset.
		if e, ok := graph.RandomEdgeNotIn(g, rng); ok {
			d.PatchInsertEdge(e.U, e.V)
		}
		if e, ok := graph.RandomExistingEdge(g, rng); ok {
			d.PatchDeleteEdge(e.U, e.V)
		}
		d.PatchInsertVertex(n+100, []int{0})
		d.ResetPatches()
		if d.NumPatches() != 0 {
			return false
		}
		// Same answers as fresh on random walk queries.
		walk, onWalk := randomWalkInTree(g, rng)
		if len(walk) == 0 {
			return true
		}
		var sources []int
		for v := 0; v < g.NumVertexSlots(); v++ {
			if !onWalk[v] {
				sources = append(sources, v)
			}
		}
		a, aok := d.EdgeToWalk(sources, walk, true, nil)
		b, bok := fresh.EdgeToWalk(sources, walk, true, nil)
		return aok == bok && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
