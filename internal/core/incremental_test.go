package core

import (
	"math/rand"
	"testing"

	"repro/internal/dstruct"
	"repro/internal/graph"
)

// diffQueries issues the same batch of EdgeToWalk queries — the shapes the
// rerooting engine uses — against the incrementally maintained D and a D
// freshly built from scratch over the current (graph, tree), and requires
// bit-identical answers.
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
			t.Fatalf("%s: query %d diverged: incremental %+v(%v) vs fresh %+v(%v)",
				ctx, i, got[i].Hit, got[i].OK, want[i].Hit, want[i].OK)
		}
	}
}

// TestIncrementalDMatchesFreshBuild is the tentpole differential: over
// random mixed update sequences (all four kinds, with headroom small enough
// to exercise the relocatePseudo path), the incrementally maintained D must
// stay structurally identical to — and answer every EdgeToWalkBatch query
// exactly like — a D rebuilt from scratch after every update. It runs the
// Parallel executor, the one whose maintainer keeps a D.
func TestIncrementalDMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(24)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		// Headroom 1: almost every vertex insertion relocates the pseudo root.
		dd := New(g, Options{RebuildD: true, Headroom: 1, Executor: Parallel})
		for step := 0; step < 40; step++ {
			op := randomUpdate(t, dd, rng)
			if op == "" {
				continue
			}
			check(t, dd, op)
			if err := dd.D().CheckSynced(dd.Graph(), dd.Tree()); err != nil {
				t.Fatalf("trial %d step %d (%s): %v", trial, step, op, err)
			}
			diffQueries(t, dd, rng, op)
		}
		if inc, _ := dd.D().MaintenanceCounts(); inc == 0 {
			t.Fatalf("trial %d: no update took the incremental path", trial)
		}
	}
}

// TestIncrementalFallbackOnHugeChurn pins the churn-ratio fallback: deleting
// the hub of a star moves every leaf at once (the patch set alone touches
// every edge), so the update must take the full-rebuild branch, while a
// back-edge insert right after stays incremental. It runs the Parallel
// executor, the one whose maintainer keeps a D.
func TestIncrementalFallbackOnHugeChurn(t *testing.T) {
	dd := New(graph.Star(64), Options{RebuildD: true, Executor: Parallel})
	inc0, reb0 := dd.D().MaintenanceCounts()
	if err := dd.DeleteVertex(0); err != nil {
		t.Fatal(err)
	}
	if got := dd.D().LastMaintenance(); got != dstruct.MaintenanceRebuild {
		t.Fatalf("hub delete maintained D via %v, want rebuild fallback", got)
	}
	inc1, reb1 := dd.D().MaintenanceCounts()
	if reb1 != reb0+1 || inc1 != inc0 {
		t.Fatalf("counts after hub delete: incremental %d→%d, rebuilds %d→%d", inc0, inc1, reb0, reb1)
	}
	check(t, dd, "hub delete")
	if err := dd.D().CheckSynced(dd.Graph(), dd.Tree()); err != nil {
		t.Fatal(err)
	}

	// Low churn: connect two leaves (a cross edge moving one singleton
	// subtree), then hang a back edge on the resulting path — both cheap.
	if err := dd.InsertEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := dd.D().LastMaintenance(); got != dstruct.MaintenanceIncremental {
		t.Fatalf("leaf-leaf insert maintained D via %v, want incremental", got)
	}
	check(t, dd, "leaf-leaf insert")
	if err := dd.D().CheckSynced(dd.Graph(), dd.Tree()); err != nil {
		t.Fatal(err)
	}
}
