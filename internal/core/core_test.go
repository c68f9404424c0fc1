package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify"
)

// check asserts the maintainer's tree is a DFS forest of its graph.
func check(t *testing.T, dd *DynamicDFS, ctx string) {
	t.Helper()
	if err := verify.DFSForest(dd.Graph(), dd.Tree(), dd.PseudoRoot()); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

func TestInsertEdgeBackAndCross(t *testing.T) {
	g := graph.Path(6) // DFS tree is the path itself
	dd := NewFullyDynamic(g)
	check(t, dd, "initial")
	// (0,3): both on one root-to-leaf path -> back edge, tree unchanged.
	before := dd.Tree()
	if err := dd.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "back edge insert")
	for v := 0; v < 6; v++ {
		if dd.Tree().Parent[v] != before.Parent[v] {
			t.Fatalf("back edge changed tree at %d", v)
		}
	}
	if dd.LastStats().TotalTraversal != 0 {
		t.Fatal("back edge insert should not traverse")
	}
}

func TestInsertEdgeCross(t *testing.T) {
	// Star: tree 0-(1,2,...); insert leaf-leaf cross edge.
	dd := NewFullyDynamic(graph.Star(6))
	if err := dd.InsertEdge(2, 4); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "cross edge insert")
	if dd.LastStats().TotalTraversal == 0 {
		t.Fatal("cross edge insert must restructure")
	}
}

func TestInsertEdgeMergesComponents(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 3, V: 4}, {U: 4, V: 5}})
	dd := NewFullyDynamic(g)
	check(t, dd, "initial forest")
	if err := dd.InsertEdge(1, 5); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "component merge")
	if !dd.Graph().IsConnected() {
		// 2 is still isolated
		if got := dd.Tree().Level(5); got < 1 {
			t.Fatalf("level(5)=%d", got)
		}
	}
}

func TestDeleteEdgeBackTreeSplit(t *testing.T) {
	dd := NewFullyDynamic(graph.Cycle(8))
	// Cycle: tree is a path 0..7 plus back edge (7,0). Delete back edge.
	if err := dd.DeleteEdge(7, 0); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "delete back edge")
	// Now a path; delete tree edge (3,4): split into two components.
	if err := dd.DeleteEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "tree edge delete split")
	label, k := dd.Graph().ConnectedComponents()
	if k != 2 || label[0] == label[7] {
		t.Fatalf("expected split, got %d comps", k)
	}
}

func TestDeleteEdgeReattach(t *testing.T) {
	// Cycle: deleting a tree edge reattaches via the cycle's back edge.
	dd := NewFullyDynamic(graph.Cycle(8))
	if err := dd.DeleteEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "delete tree edge with reattach")
	if !dd.Graph().IsConnected() {
		t.Fatal("graph should stay connected")
	}
}

func TestDeleteVertexCenter(t *testing.T) {
	dd := NewFullyDynamic(graph.Star(7))
	if err := dd.DeleteVertex(0); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "delete star center")
	if _, k := dd.Graph().ConnectedComponents(); k != 6 {
		t.Fatalf("expected 6 singleton components, got %d", k)
	}
}

func TestDeleteVertexInternal(t *testing.T) {
	dd := NewFullyDynamic(graph.Cycle(9))
	if err := dd.DeleteVertex(4); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "delete cycle vertex")
	if !dd.Graph().IsConnected() {
		t.Fatal("cycle minus vertex should stay connected")
	}
}

func TestInsertVertexVariants(t *testing.T) {
	dd := NewFullyDynamic(graph.Path(6))
	// Isolated vertex.
	v, err := dd.InsertVertex(nil)
	if err != nil {
		t.Fatal(err)
	}
	check(t, dd, "insert isolated vertex")
	// Pendant vertex.
	if _, err = dd.InsertVertex([]int{3}); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "insert pendant vertex")
	// High-degree vertex spanning the path and the isolated one.
	if _, err = dd.InsertVertex([]int{0, 2, 5, v}); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "insert hub vertex")
	if !dd.Graph().IsConnected() {
		t.Fatal("hub should connect everything")
	}
}

func TestApplyDispatch(t *testing.T) {
	dd := NewFullyDynamic(graph.Path(5))
	if _, err := dd.Apply(Update{Kind: InsertEdge, U: 0, V: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := dd.Apply(Update{Kind: DeleteEdge, U: 2, V: 3}); err != nil {
		t.Fatal(err)
	}
	id, err := dd.Apply(Update{Kind: InsertVertex, Neighbors: []int{0}})
	if err != nil || id < 0 {
		t.Fatalf("insert vertex: id=%d err=%v", id, err)
	}
	if _, err := dd.Apply(Update{Kind: DeleteVertex, U: 1}); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "after dispatch sequence")
	if dd.Updates() != 4 {
		t.Fatalf("Updates=%d want 4", dd.Updates())
	}
}

func TestErrorPaths(t *testing.T) {
	dd := NewFullyDynamic(graph.Path(4))
	if err := dd.InsertEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := dd.DeleteEdge(0, 3); err == nil {
		t.Fatal("missing edge deletion accepted")
	}
	if err := dd.DeleteVertex(99); err == nil {
		t.Fatal("missing vertex deletion accepted")
	}
	if _, err := dd.Apply(Update{Kind: UpdateKind(9)}); err == nil {
		t.Fatal("unknown update accepted")
	}
	check(t, dd, "after error paths (state unchanged)")
}

// TestDeleteEdgeOutOfRange feeds DeleteEdge vertex IDs outside the graph:
// each must come back as an error, never an index panic, and leave the
// maintainer intact for the next update.
func TestDeleteEdgeOutOfRange(t *testing.T) {
	dd := NewFullyDynamic(graph.Path(4))
	big, pseudo := 1<<20, dd.PseudoRoot()
	for _, e := range [][2]int{{0, big}, {big, 0}, {-1, 0}, {0, -1}, {-1, big}, {3, pseudo}, {pseudo, 3}} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("DeleteEdge(%d,%d) panicked: %v", e[0], e[1], r)
				}
			}()
			if err := dd.DeleteEdge(e[0], e[1]); err == nil {
				t.Errorf("DeleteEdge(%d,%d) accepted", e[0], e[1])
			}
		}()
	}
	check(t, dd, "after out-of-range deletes")
	if err := dd.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	check(t, dd, "after a valid delete")
	if err := dd.CheckSynced(); err != nil {
		t.Fatal(err)
	}
}

// randomUpdate mutates dd with a random feasible update and returns a
// description, or "" if skipped.
func randomUpdate(t *testing.T, dd *DynamicDFS, rng *rand.Rand) string {
	t.Helper()
	g := dd.Graph()
	switch rng.Intn(10) {
	case 0, 1, 2:
		if e, ok := graph.RandomEdgeNotIn(g, rng); ok {
			if err := dd.InsertEdge(e.U, e.V); err != nil {
				t.Fatalf("InsertEdge%v: %v", e, err)
			}
			return "ins-edge"
		}
	case 3, 4, 5:
		if e, ok := graph.RandomExistingEdge(g, rng); ok {
			if err := dd.DeleteEdge(e.U, e.V); err != nil {
				t.Fatalf("DeleteEdge%v: %v", e, err)
			}
			return "del-edge"
		}
	case 6, 7:
		var nbrs []int
		for v := 0; v < g.NumVertexSlots(); v++ {
			if g.IsVertex(v) && rng.Float64() < 0.15 {
				nbrs = append(nbrs, v)
			}
		}
		if _, err := dd.InsertVertex(nbrs); err != nil {
			t.Fatalf("InsertVertex(%v): %v", nbrs, err)
		}
		return "ins-vertex"
	default:
		if g.NumVertices() > 3 {
			v := rng.Intn(g.NumVertexSlots())
			for !g.IsVertex(v) {
				v = rng.Intn(g.NumVertexSlots())
			}
			if err := dd.DeleteVertex(v); err != nil {
				t.Fatalf("DeleteVertex(%d): %v", v, err)
			}
			return "del-vertex"
		}
	}
	return ""
}

func TestRandomUpdateSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(24)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		dd := NewFullyDynamic(g)
		check(t, dd, "initial")
		for step := 0; step < 30; step++ {
			if op := randomUpdate(t, dd, rng); op != "" {
				check(t, dd, op)
			}
		}
	}
}

func TestLongSequenceStatsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	g := graph.GnpConnected(64, 0.06, rng)
	dd := New(g, Options{RebuildD: true, Executor: Parallel})
	var fallbacks, violations int
	for step := 0; step < 120; step++ {
		if op := randomUpdate(t, dd, rng); op != "" {
			check(t, dd, op)
			s := dd.LastStats()
			fallbacks += s.Fallbacks + s.GenericFall + s.HeavySpecial
			violations += s.Violations
		}
	}
	if fallbacks != 0 || violations != 0 {
		t.Fatalf("fallbacks=%d violations=%d on random sequence", fallbacks, violations)
	}
}

func TestHeadroomRelocation(t *testing.T) {
	// Fully dynamic mode relocates the pseudo root when headroom runs out.
	dd := New(graph.Path(3), Options{RebuildD: true, Headroom: 2})
	oldPseudo := dd.PseudoRoot()
	for i := 0; i < 6; i++ {
		if _, err := dd.InsertVertex([]int{0}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		check(t, dd, "after relocation-capable insert")
	}
	if dd.PseudoRoot() <= oldPseudo {
		t.Fatal("pseudo root was not relocated")
	}
	// Fault tolerant mode (no rebuild) must refuse instead.
	ft := New(graph.Path(3), Options{RebuildD: false, Headroom: 2})
	if _, err := ft.InsertVertex([]int{0}); err != nil {
		t.Fatalf("first insert within headroom: %v", err)
	}
	if _, err := ft.InsertVertex([]int{0}); err == nil {
		t.Fatal("headroom exhaustion not reported without rebuild")
	}
}

// TestRestoredRelocatesLikeLive pins that the pseudo-root relocation rule
// depends only on the graph and Options.Headroom, not on the maintainer's
// history: a maintainer restored from a live one's (graph, tree, pseudo)
// state must answer every later vertex insertion exactly as the live one,
// relocations included.
func TestRestoredRelocatesLikeLive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	opt := Options{RebuildD: true, Headroom: 4}
	live := New(graph.GnpConnected(32, 4.0/32, rng), opt)
	insert := func(dd *DynamicDFS, nbrs []int) int {
		t.Helper()
		u, err := dd.InsertVertex(nbrs)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	neighbors := func(n int) []int {
		k := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var out []int
		for len(out) < k {
			if v := rng.Intn(n); !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	for i := 0; i < 6; i++ {
		insert(live, neighbors(live.Graph().NumVertexSlots()))
	}
	restored := NewDynamicRestored(live.Graph(), live.Tree(), live.PseudoRoot(), live.Updates(), opt)
	relocated := false
	for i := 0; i < 34; i++ {
		nbrs := neighbors(live.Graph().NumVertexSlots())
		before := live.PseudoRoot()
		u, ru := insert(live, nbrs), insert(restored, nbrs)
		relocated = relocated || live.PseudoRoot() != before
		if u != ru {
			t.Fatalf("insert %d: live vertex %d, restored vertex %d", i, u, ru)
		}
		if lp, rp := live.PseudoRoot(), restored.PseudoRoot(); lp != rp {
			t.Fatalf("insert %d (vertex %d): live pseudo root %d, restored %d", i, u, lp, rp)
		}
		lt, rt := live.Tree().Parent, restored.Tree().Parent
		if len(lt) != len(rt) {
			t.Fatalf("insert %d: live tree has %d slots, restored %d", i, len(lt), len(rt))
		}
		for v := range lt {
			if lt[v] != rt[v] {
				t.Fatalf("insert %d: parent of %d is %d live, %d restored", i, v, lt[v], rt[v])
			}
		}
		check(t, restored, "restored insert")
	}
	if !relocated {
		t.Fatal("no insert relocated the pseudo root; the test checks nothing")
	}
}

func TestDeleteEverything(t *testing.T) {
	dd := NewFullyDynamic(graph.Complete(5))
	for v := 0; v < 5; v++ {
		if err := dd.DeleteVertex(v); err != nil {
			t.Fatal(err)
		}
		check(t, dd, "delete all")
	}
	if dd.Graph().NumVertices() != 0 {
		t.Fatal("vertices remain")
	}
}
