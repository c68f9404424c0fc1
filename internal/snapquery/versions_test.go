package snapquery

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// intner draws the choices of applyRandomUpdate: a *rand.Rand, or the
// fuzzer's byte decoder.
type intner interface{ Intn(n int) int }

// applyRandomUpdate applies one random valid update to dd, returning false
// when the drawn update was a no-op (e.g. no edge left to delete).
func applyRandomUpdate(t *testing.T, dd *core.DynamicDFS, rng intner) bool {
	t.Helper()
	g := dd.Frozen()
	slots := g.NumVertexSlots()
	pick := func() int {
		for {
			if v := rng.Intn(slots); g.IsVertex(v) {
				return v
			}
		}
	}
	switch rng.Intn(10) {
	case 0, 1, 2: // insert edge
		for try := 0; try < 20; try++ {
			u, v := pick(), pick()
			if u != v && !g.HasEdge(u, v) {
				if err := dd.InsertEdge(u, v); err != nil {
					t.Fatalf("InsertEdge(%d,%d): %v", u, v, err)
				}
				return true
			}
		}
		return false
	case 3, 4, 5: // delete edge
		edges := g.Edges()
		if len(edges) == 0 {
			return false
		}
		e := edges[rng.Intn(len(edges))]
		if err := dd.DeleteEdge(e.U, e.V); err != nil {
			t.Fatalf("DeleteEdge(%d,%d): %v", e.U, e.V, err)
		}
		return true
	case 6, 7, 8: // insert vertex (with a few random neighbors)
		var nbrs []int
		for i := rng.Intn(3); i > 0; i-- {
			if v := pick(); !slices.Contains(nbrs, v) {
				nbrs = append(nbrs, v)
			}
		}
		if _, err := dd.InsertVertex(nbrs); err != nil {
			t.Fatalf("InsertVertex(%v): %v", nbrs, err)
		}
		return true
	default: // delete vertex
		if g.NumVertices() <= 3 {
			return false
		}
		v := pick()
		if err := dd.DeleteVertex(v); err != nil {
			t.Fatalf("DeleteVertex(%d): %v", v, err)
		}
		return true
	}
}

// countBuilds makes h count its index builds into n.
func countBuilds(h *Handle, n *int) *Handle {
	h.observe = func(time.Duration) { *n++ }
	return h
}

// TestDifferentialOracleRandomMixed is the published index's differential
// oracle: a random mixed update sequence (small headroom, so pseudo-root
// relocations renumber the tree mid-run) where every version's handle
// answers the LCA family from the maintainer's tree. Each must build no LCA
// index of its own, pass CheckSynced (the tree's index equals a fresh
// derivation from its numbering) and answer identically to naive
// recomputation (checkHandle).
func TestDifferentialOracleRandomMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.GnpConnected(120, 0.05, rng)
	dd := core.New(g, core.Options{RebuildD: true, Headroom: 4})
	relocations := 0
	for i := 0; i < 150; i++ {
		pseudo := dd.PseudoRoot()
		if !applyRandomUpdate(t, dd, rng) {
			continue
		}
		if dd.PseudoRoot() != pseudo {
			relocations++
		}
		builds := 0
		h := countBuilds(New(dd.Frozen(), dd.Tree(), dd.PseudoRoot()), &builds)
		h.Warm()
		if builds != 1 {
			t.Fatalf("update %d: warming a handle built %d indexes, want 1 (bicon)", i, builds)
		}
		if err := h.CheckSynced(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		checkHandle(t, h, rng)
	}
	if relocations == 0 {
		t.Error("random sequence never relocated the pseudo root (expected with Headroom=4)")
	}
}

// TestDifferentialChurnFallback forces a high-churn update — deleting the
// chain's first tree edge reroots nearly the whole tree — and verifies a
// handle over the new tree and its index is in sync and correct. It runs
// the Parallel executor, whose maintainer keeps a D.
func TestDifferentialChurnFallback(t *testing.T) {
	const n = 40
	dd := core.New(graph.Cycle(n), core.Options{RebuildD: true, Executor: core.Parallel})
	before := dd.Tree()
	if err := dd.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if dd.Tree() == before {
		t.Fatal("the old tree and its index survived a reroot")
	}
	h := New(dd.Frozen(), dd.Tree(), dd.PseudoRoot())
	h.Warm()
	if err := h.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	checkHandle(t, h, rand.New(rand.NewSource(7)))
}

// TestSameTreeSharesIndexes: a back-edge update leaves the tree object
// untouched, so both versions' handles share the tree and its LCA index —
// same pointer, zero rebuild — while biconnectivity (which depends on the
// changed edge set) is built once per handle.
func TestSameTreeSharesIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.GnpConnected(80, 0.06, rng)
	dd := core.NewFullyDynamic(g)
	h := New(dd.Frozen(), dd.Tree(), dd.PseudoRoot())
	h.Warm()
	// Find a back-edge insert: any non-adjacent ancestor-descendant pair.
	tr := dd.Tree()
	var u, v int
	found := false
	for x := 0; x < g.NumVertexSlots() && !found; x++ {
		for y := 0; y < g.NumVertexSlots() && !found; y++ {
			if x != y && tr.Present(x) && tr.Present(y) && tr.IsAncestor(x, y) &&
				x != dd.PseudoRoot() && !dd.Frozen().HasEdge(x, y) {
				u, v = x, y
				found = true
			}
		}
	}
	if !found {
		t.Skip("no back-edge candidate in generated graph")
	}
	if err := dd.InsertEdge(u, v); err != nil {
		t.Fatal(err)
	}
	if dd.Tree() != tr {
		t.Fatal("back-edge update replaced the tree object")
	}
	nh := New(dd.Frozen(), dd.Tree(), dd.PseudoRoot())
	nh.Warm()
	if nh.Tree() != h.Tree() {
		t.Error("SameTree handles do not share the tree and its LCA index")
	}
	if nh.biconIx == h.biconIx {
		t.Error("SameTree handle shared the bicon index despite a changed edge set")
	}
	if err := nh.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	checkHandle(t, nh, rng)
}

// TestHeldHandleAcrossVersions: a version chain. A reader still holding
// the first version's handle keeps answering for that version after the
// graph moved on, and the next version's handle answers LCA and
// level-ancestor queries from its tree without building an index.
func TestHeldHandleAcrossVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.GnpConnected(60, 0.08, rng)
	dd := core.NewFullyDynamic(g)
	key := func(v uint64) Key { return Key{Graph: "g", Version: v} }
	var builds atomic.Int64
	observe := func(time.Duration) { builds.Add(1) }

	h0 := NewObserved(key(0), dd.Frozen(), dd.Tree(), dd.PseudoRoot(), observe)
	h0.Warm()
	if dd.Frozen().HasEdge(0, 1) {
		if err := dd.DeleteEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	} else if err := dd.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := h0.CheckSynced(); err != nil {
		t.Fatalf("held handle: %v", err)
	}
	checkHandle(t, h0, rng)

	before := builds.Load()
	h1 := NewObserved(key(1), dd.Frozen(), dd.Tree(), dd.PseudoRoot(), observe)
	if _, err := h1.LCA(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.KthAncestor(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load() - before; got != 0 {
		t.Fatalf("LCA and level-ancestor queries on a published version built %d indexes, want 0", got)
	}
	if err := h1.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	checkHandle(t, h1, rng)
}

// TestConcurrentVersionHandles is the -race soak: one writer publishes
// versions, each a maintainer's tree with its index and one handle made
// at publication (as the service hangs one on each snapshot), while
// readers query whichever version is latest. The build-once contract is
// asserted by accounting: every created handle builds its one index
// (bicon) exactly once, so builds == created handles; the LCA index is
// the tree's, outside the count.
func TestConcurrentVersionHandles(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := graph.GnpConnected(200, 0.03, rng)
	dd := core.New(g, core.Options{RebuildD: true, Headroom: 16})
	var builds, created atomic.Int64
	publish := func() *Handle {
		created.Add(1)
		key := Key{Graph: "g", Version: uint64(dd.Updates())}
		return NewObserved(key, dd.Frozen(), dd.Tree(), dd.PseudoRoot(), func(time.Duration) { builds.Add(1) })
	}
	var latest atomic.Pointer[Handle]
	latest.Store(publish())
	latest.Load().Warm()

	const updates = 120
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := latest.Load()
				h.Warm()
				live := liveVertices(h.Tree(), h.PseudoRoot())
				u := live[rr.Intn(len(live))]
				v := live[rr.Intn(len(live))]
				if _, err := h.LCA(u, v); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.SubtreeAgg(u); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.KthAncestor(v, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}

	wrng := rand.New(rand.NewSource(7))
	for i := 0; i < updates; i++ {
		if !applyRandomUpdate(t, dd, wrng) {
			continue
		}
		h := publish()
		latest.Store(h)
		// The writer doubles as a querier of its own publication, so every
		// created handle is warmed at least once.
		h.Warm()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Warm() builds bicon once per handle across all concurrent warmers,
	// and every created handle was warmed by the writer. A double build,
	// or an LCA build, breaks the equality.
	if b, c := builds.Load(), created.Load(); b != c {
		t.Fatalf("builds = %d, want %d (one per created handle)", b, c)
	}
	// The survivors must be coherent.
	h := latest.Load()
	if err := h.CheckSynced(); err != nil {
		t.Fatal(err)
	}
	checkHandle(t, h, rng)
}
