package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dstruct"
	"repro/internal/graph"
)

// diffQueries issues the same batch of EdgeToWalk queries — the shapes the
// rerooting engine uses — against the maintainer's D and a D freshly built
// from scratch over the current (graph, tree), and requires bit-identical
// answers.
func diffQueries(t *testing.T, dd *DynamicDFS, rng *rand.Rand, ctx string) {
	t.Helper()
	tr := dd.Tree()
	fresh := dstruct.Build(dd.Graph(), tr, nil)
	var qs []dstruct.WalkQuery
	for v := 0; v < dd.Graph().NumVertexSlots(); v++ {
		if !tr.Present(v) || tr.Parent[v] == dd.PseudoRoot() || tr.Parent[v] == -1 {
			continue
		}
		if rng.Intn(3) != 0 && len(qs) > 0 {
			continue
		}
		// The engine's query shape: sources = T(v), walk = the tree path
		// from v's parent up to v's component root (disjoint from T(v)).
		p := tr.Parent[v]
		walk := tr.PathUp(p, tr.AncestorAtLevel(p, 1))
		src := tr.SubtreeVertices(v, nil)
		qs = append(qs,
			dstruct.WalkQuery{Sources: src, Walk: walk, FromEnd: true},
			dstruct.WalkQuery{Sources: src, Walk: walk, FromEnd: false},
			dstruct.WalkQuery{Sources: src, Walk: walk, FromEnd: true, BySource: true},
		)
	}
	got := dd.D().EdgeToWalkBatch(qs, nil)
	want := fresh.EdgeToWalkBatch(qs, nil)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("%s: query %d diverged: maintained %+v(%v) vs fresh %+v(%v)",
				ctx, i, got[i].Hit, got[i].OK, want[i].Hit, want[i].OK)
		}
	}
}

// TestIncrementalDMatchesFreshBuild is the maintained-D differential: over
// random mixed update sequences (all four kinds, with headroom small enough
// to exercise the relocatePseudo path), the D that a fully dynamic
// maintainer rebuilds in place after every update must stay structurally
// identical to — and answer every EdgeToWalkBatch query exactly like — a D
// built from scratch. One more case deletes the hub of a star, which moves
// every leaf at once, then inserts a leaf-leaf edge. It runs both
// executors whose maintainers keep a D, Parallel and Sequential.
func TestIncrementalDMatchesFreshBuild(t *testing.T) {
	synced := func(dd *DynamicDFS, rng *rand.Rand, ctx string) {
		t.Helper()
		check(t, dd, ctx)
		if err := dd.D().CheckSynced(dd.Graph(), dd.Tree()); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		diffQueries(t, dd, rng, ctx)
	}
	for _, exec := range []Executor{Parallel, Sequential} {
		rng := rand.New(rand.NewSource(211))
		for trial := 0; trial < 12; trial++ {
			n := 8 + rng.Intn(24)
			g := graph.GnpConnected(n, 3.0/float64(n), rng)
			// Headroom 1: almost every vertex insertion relocates the pseudo root.
			dd := New(g, Options{RebuildD: true, Headroom: 1, Executor: exec})
			for step := 0; step < 40; step++ {
				op := randomUpdate(t, dd, rng)
				if op == "" {
					continue
				}
				synced(dd, rng, fmt.Sprintf("exec %d trial %d step %d (%s)", exec, trial, step, op))
			}
		}

		dd := New(graph.Star(64), Options{RebuildD: true, Executor: exec})
		if err := dd.DeleteVertex(0); err != nil {
			t.Fatal(err)
		}
		synced(dd, rng, fmt.Sprintf("exec %d: star hub delete", exec))
		if err := dd.InsertEdge(1, 2); err != nil {
			t.Fatal(err)
		}
		synced(dd, rng, fmt.Sprintf("exec %d: leaf-leaf insert", exec))
	}
}
