package reroot

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dstruct"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/tree"
	"repro/internal/verify"
)

// rerootAndVerify reroots T(sub) of g's DFS tree at rstar and checks the
// result is a DFS tree of g. Returns the engine for stats assertions.
func rerootAndVerify(t *testing.T, g *graph.Persistent, sub, rstar int) *Engine {
	t.Helper()
	tr := baseline.StaticDFSFrom(g, findRoot(g))
	if !tr.Present(sub) || !tr.IsAncestor(sub, rstar) {
		t.Fatalf("bad test setup: sub=%d rstar=%d", sub, rstar)
	}
	d := dstruct.Build(g, tr, nil)
	e := New(tr, d, pram.NewMachine(tr.Live()))
	attach := tree.None
	if sub != tr.Root {
		attach = tr.Parent[sub]
	}
	if err := e.Reroot(sub, rstar, attach); err != nil {
		t.Fatalf("Reroot(%d,%d): %v", sub, rstar, err)
	}
	newRoot := tr.Root
	if sub == tr.Root {
		newRoot = rstar
	}
	got, err := e.Result(newRoot, presentOf(tr))
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if err := verify.DFSTree(g, got, tree.None); err != nil {
		t.Fatalf("invalid DFS tree after reroot(%d,%d): %v", sub, rstar, err)
	}
	return e
}

func presentOf(tr *tree.Tree) []bool {
	p := make([]bool, tr.N())
	for _, v := range tr.Vertices() {
		p[v] = true
	}
	return p
}

func findRoot(g *graph.Persistent) int {
	for v := 0; v < g.NumVertexSlots(); v++ {
		if g.IsVertex(v) {
			return v
		}
	}
	return -1
}

func TestRerootPathGraph(t *testing.T) {
	// Rerooting a path at any vertex exercises path pieces heavily.
	g := graph.Path(16)
	for rstar := 0; rstar < 16; rstar++ {
		rerootAndVerify(t, g, 0, rstar)
	}
}

func TestRerootCycle(t *testing.T) {
	g := graph.Cycle(12)
	for rstar := 0; rstar < 12; rstar++ {
		rerootAndVerify(t, g, 0, rstar)
	}
}

func TestRerootCompleteGraph(t *testing.T) {
	g := graph.Complete(9)
	for rstar := 0; rstar < 9; rstar++ {
		rerootAndVerify(t, g, 0, rstar)
	}
}

func TestRerootStarAndBroom(t *testing.T) {
	for rstar := 0; rstar < 10; rstar++ {
		rerootAndVerify(t, graph.Star(10), 0, rstar)
	}
	g := graph.Broom(24, 8)
	for rstar := 0; rstar < 24; rstar++ {
		rerootAndVerify(t, g, 0, rstar)
	}
}

func TestRerootGrid(t *testing.T) {
	g := graph.Grid(5, 6)
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 20; i++ {
		rerootAndVerify(t, g, 0, rng.Intn(30))
	}
}

func TestRerootRandomWholeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		n := 4 + rng.Intn(60)
		g := graph.GnpConnected(n, 2.5/float64(n), rng)
		rstar := rng.Intn(n)
		rerootAndVerify(t, g, 0, rstar)
	}
}

func TestRerootRandomSubtree(t *testing.T) {
	// Rerooting a proper subtree is only meaningful with a valid attach
	// edge: the deepest edge leaving the subtree, exactly what the
	// reduction algorithm computes for an edge deletion. Mirror that here.
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 120; trial++ {
		n := 6 + rng.Intn(50)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		tr := baseline.StaticDFSFrom(g, 0)
		sub := rng.Intn(n)
		if sub == tr.Root {
			rerootAndVerify(t, g, sub, rng.Intn(n))
			continue
		}
		// Deepest external neighbor of T(sub) and an inside endpoint.
		rstar, attach := -1, -1
		for _, v := range tr.SubtreeVertices(sub, nil) {
			for _, nb := range g.SortedNeighbors(v) {
				if tr.IsAncestor(sub, nb) {
					continue
				}
				if attach < 0 || tr.Level(nb) > tr.Level(attach) {
					rstar, attach = v, nb
				}
			}
		}
		d := dstruct.Build(g, tr, nil)
		e := New(tr, d, nil)
		if err := e.Reroot(sub, rstar, attach); err != nil {
			t.Fatalf("Reroot(%d,%d): %v", sub, rstar, err)
		}
		// Detach the old tree edge and hang the block under attach.
		got, err := e.Result(tr.Root, presentOf(tr))
		if err != nil {
			t.Fatalf("Result: %v", err)
		}
		if err := verify.DFSTree(g, got, tree.None); err != nil {
			t.Fatalf("invalid DFS tree after subtree reroot(%d→%d under %d): %v",
				sub, rstar, attach, err)
		}
	}
}

func TestRerootDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(30)
		g := graph.GnpConnected(n, 0.4, rng)
		rerootAndVerify(t, g, 0, rng.Intn(n))
	}
}

func TestRerootNoFallbacksOnRandom(t *testing.T) {
	// On random workloads the paper's scenarios must suffice: no generic
	// fallbacks, no invariant violations, and the special case absent.
	rng := rand.New(rand.NewSource(83))
	var agg Stats
	for trial := 0; trial < 150; trial++ {
		n := 8 + rng.Intn(56)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		e := rerootAndVerify(t, g, 0, rng.Intn(n))
		agg.Add(e.Stats)
	}
	if agg.GenericFall > 0 || agg.Violations > 0 {
		t.Fatalf("invariant machinery broke on random inputs: %+v", agg)
	}
	if agg.HeavySpecial > 0 {
		t.Fatalf("special case unexpectedly triggered: %+v", agg)
	}
}

func TestRerootRoundBound(t *testing.T) {
	// Rounds on the critical path must stay within c·log²n.
	rng := rand.New(rand.NewSource(89))
	for _, n := range []int{64, 128, 256, 512} {
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		worst := 0
		for trial := 0; trial < 10; trial++ {
			e := rerootAndVerify(t, g, 0, rng.Intn(n))
			if e.Stats.Rounds > worst {
				worst = e.Stats.Rounds
			}
		}
		lg := int(pram.Log2Ceil(n))
		if worst > 4*lg*lg {
			t.Fatalf("n=%d: %d rounds > 4·log²n = %d", n, worst, 4*lg*lg)
		}
	}
}

func TestRerootDegenerate(t *testing.T) {
	// Single vertex.
	g := graph.NewPersistent(1)
	rerootAndVerify(t, g, 0, 0)
	// Single edge.
	g2 := graph.Path(2)
	rerootAndVerify(t, g2, 0, 1)
	rerootAndVerify(t, g2, 0, 0)
	// Triangle.
	g3 := graph.Cycle(3)
	for r := 0; r < 3; r++ {
		rerootAndVerify(t, g3, 0, r)
	}
}

func TestRerootSameRoot(t *testing.T) {
	// Rerooting at the current root must reproduce a valid DFS tree.
	rng := rand.New(rand.NewSource(97))
	g := graph.GnpConnected(20, 0.2, rng)
	rerootAndVerify(t, g, 0, 0)
}

func TestRerootRejectsOutsideVertex(t *testing.T) {
	g := graph.Path(6)
	tr := baseline.StaticDFSFrom(g, 0)
	d := dstruct.Build(g, tr, nil)
	e := New(tr, d, nil)
	// vertex 1's subtree is 1..5; rerooting T(2) at 1 must fail.
	if err := e.Reroot(2, 1, tr.Parent[2]); err == nil {
		t.Fatal("rerooting at vertex outside subtree accepted")
	}
}

func TestRerootCaterpillar(t *testing.T) {
	g := graph.Caterpillar(8, 3)
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 15; i++ {
		rerootAndVerify(t, g, 0, rng.Intn(g.NumVertexSlots()))
	}
}

func TestStatsAggregation(t *testing.T) {
	var a, b Stats
	a.Rounds, a.Disintegrate = 3, 2
	b.Rounds, b.PathHalve, b.MaxPhase = 5, 1, 4
	a.Add(b)
	if a.Rounds != 5 || a.Disintegrate != 2 || a.PathHalve != 1 || a.MaxPhase != 4 {
		t.Fatalf("aggregated stats wrong: %+v", a)
	}
}
