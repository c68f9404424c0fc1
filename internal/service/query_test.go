package service

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bicon"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tree"
)

func queryNaiveLCA(t *tree.Tree, u, v, pseudo int) int {
	for t.Level(u) > t.Level(v) {
		u = t.Parent[u]
	}
	for t.Level(v) > t.Level(u) {
		v = t.Parent[v]
	}
	for u != v {
		u, v = t.Parent[u], t.Parent[v]
	}
	if u == pseudo {
		return -1
	}
	return u
}

// checkHandleAgainstPinned proves a handle's answers equal naive
// recomputation on the snapshot it pins — regardless of how many updates
// have been applied since the handle was obtained.
func checkHandleAgainstPinned(t *testing.T, h *QueryHandle, rng *rand.Rand, ctx string) {
	t.Helper()
	tr, pseudo := h.Tree(), h.PseudoRoot()
	an := bicon.Analyze(h.Graph(), tr, pseudo, nil)
	var live []int
	for _, v := range tr.Vertices() {
		if v != pseudo {
			live = append(live, v)
		}
	}
	for i := 0; i < 12; i++ {
		u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		got, err := h.LCA(u, v)
		if err != nil {
			t.Fatalf("%s: LCA(%d,%d): %v", ctx, u, v, err)
		}
		if want := queryNaiveLCA(tr, u, v, pseudo); got != want {
			t.Fatalf("%s: LCA(%d,%d) = %d, naive %d", ctx, u, v, got, want)
		}
		agg, err := h.SubtreeAgg(u)
		if err != nil {
			t.Fatalf("%s: SubtreeAgg(%d): %v", ctx, u, err)
		}
		vs := tr.SubtreeVertices(u, nil)
		if agg.Size != len(vs) {
			t.Fatalf("%s: SubtreeAgg(%d).Size = %d, subtree scan %d", ctx, u, agg.Size, len(vs))
		}
		art, err := h.IsArticulation(u)
		if err != nil {
			t.Fatalf("%s: IsArticulation(%d): %v", ctx, u, err)
		}
		if art != an.IsArticulation(u) {
			t.Fatalf("%s: IsArticulation(%d) = %v, fresh %v", ctx, u, art, an.IsArticulation(u))
		}
	}
}

// TestServiceQueryBasic: Query returns a handle pinned to the latest
// version, shared across readers of that version, correct against naive
// recomputation, and Metrics reports the handle resolutions.
func TestServiceQueryBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(Config{Shards: 2})
	defer s.Close()
	g := graph.GnpConnected(80, 0.08, rng)
	if _, err := s.CreateGraph("q", g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("missing"); err == nil {
		t.Fatal("Query on unknown graph succeeded")
	}
	h1, err := s.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("two queries of one version got distinct handles")
	}
	snap, _ := s.Snapshot("q")
	if h1.Version() != snap.Version {
		t.Fatalf("handle version %d, snapshot %d", h1.Version(), snap.Version)
	}
	if s.QuerySnapshot(snap) != h1 {
		t.Fatal("QuerySnapshot(latest) should return the snapshot's handle")
	}
	checkHandleAgainstPinned(t, h1, rng, "initial")

	m := s.Metrics()
	if m.IndexCacheMisses != 1 || m.IndexCacheHits != 2 {
		t.Fatalf("cache hits=%d misses=%d, want 2/1", m.IndexCacheHits, m.IndexCacheMisses)
	}
	if m.IndexBuilds == 0 || m.IndexBuildTime <= 0 {
		t.Fatalf("builds=%d buildTime=%v, want >0", m.IndexBuilds, m.IndexBuildTime)
	}
}

// TestServiceQueryRetainedSnapshot: each snapshot owns its handle. Over a
// chain of versions, QuerySnapshot on a retained older snapshot returns the
// very handle Query gave out for it, with no rebuild, and every held
// handle keeps answering for its pinned version after later updates and
// after its graph is dropped.
func TestServiceQueryRetainedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(Config{Shards: 1})
	defer s.Close()
	g := graph.GnpConnected(60, 0.1, rng)
	mirror := g
	if _, err := s.CreateGraph("e", g); err != nil {
		t.Fatal(err)
	}

	type pinned struct {
		snap *Snapshot
		h    *QueryHandle
	}
	var pins []pinned
	for i := 0; i < 8; i++ {
		var u core.Update
		if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok && i%2 == 0 {
			mirror = mustGraph(mirror.InsertEdge(e.U, e.V))
			u = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
		} else if e, ok := graph.RandomExistingEdge(mirror, rng); ok {
			mirror = mustGraph(mirror.DeleteEdge(e.U, e.V))
			u = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
		} else {
			t.Fatal("no update possible")
		}
		fut, err := s.Apply("e", u)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot("e")
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Query("e")
		if err != nil {
			t.Fatal(err)
		}
		h.Warm()
		pins = append(pins, pinned{snap, h})
	}
	// Every held handle still answers for its pinned version.
	for i, p := range pins {
		if p.h.Version() != p.snap.Version {
			t.Fatalf("pin %d: handle@%d vs snapshot@%d", i, p.h.Version(), p.snap.Version)
		}
		checkHandleAgainstPinned(t, p.h, rng, fmt.Sprintf("pin %d", i))
	}
	// Re-querying the retained snapshots is a hit on the handle each one
	// already owns: the same pointer, no rebuild.
	before := s.Metrics()
	for i, p := range pins {
		if h := s.QuerySnapshot(p.snap); h != p.h {
			t.Fatalf("QuerySnapshot(pin %d) returned a new handle", i)
		}
	}
	after := s.Metrics()
	if after.IndexBuilds != before.IndexBuilds || after.IndexCacheMisses != before.IndexCacheMisses {
		t.Fatalf("requerying retained snapshots: builds %d -> %d, misses %d -> %d, want unchanged",
			before.IndexBuilds, after.IndexBuilds, before.IndexCacheMisses, after.IndexCacheMisses)
	}
	if got := after.IndexCacheHits - before.IndexCacheHits; got != uint64(len(pins)) {
		t.Fatalf("requerying %d retained snapshots counted %d hits", len(pins), got)
	}

	// Held handles survive the graph's drop.
	if err := s.DropGraph("e"); err != nil {
		t.Fatal(err)
	}
	for i, p := range pins {
		checkHandleAgainstPinned(t, p.h, rng, fmt.Sprintf("pin %d after drop", i))
	}
}

// TestServiceQueryDropRecreate: a graph dropped and re-created under the
// same ID starts again at version 0, so (ID, version) names two different
// snapshots. The new incarnation's Query handle must pin its own tree, not
// the handle of the dropped one, which keeps answering for its own.
func TestServiceQueryDropRecreate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := New(Config{Shards: 2})
	defer s.Close()
	old := mustCreate(t, s, "a", graph.GnpConnected(30, 0.15, rng))
	hOld, err := s.Query("a")
	if err != nil {
		t.Fatal(err)
	}
	hOld.Warm()
	if err := s.DropGraph("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("a"); err == nil {
		t.Fatal("Query on a dropped graph succeeded")
	}

	snap := mustCreate(t, s, "a", graph.GnpConnected(30, 0.15, rng))
	if snap.Version != old.Version {
		t.Fatalf("re-created graph at version %d, want the dropped one's %d", snap.Version, old.Version)
	}
	h, err := s.Query("a")
	if err != nil {
		t.Fatal(err)
	}
	if h == hOld || h.Tree() != snap.Tree || h.Graph() != snap.Graph {
		t.Fatal("the re-created graph's handle aliases the dropped incarnation")
	}
	if h.Key() != hOld.Key() {
		t.Fatalf("keys %v and %v differ; the test needs a colliding (ID, version)", h.Key(), hOld.Key())
	}
	checkHandleAgainstPinned(t, h, rng, "new incarnation")
	checkHandleAgainstPinned(t, hOld, rng, "dropped incarnation")
}

// TestServiceQueryFirstUseRace is the -race check of the handle slot: 8
// goroutines make the first Query on one snapshot at once. All get one
// pointer, and warming it counts exactly one miss and one build.
func TestServiceQueryFirstUseRace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := New(Config{Shards: 1})
	defer s.Close()
	snap := mustCreate(t, s, "r", graph.GnpConnected(200, 0.03, rng))
	before := s.Metrics()

	const readers = 8
	handles := make([]*QueryHandle, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range handles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			h, err := s.Query("r")
			if err != nil {
				panic(err)
			}
			h.Warm()
			handles[i] = h
		}(i)
	}
	close(start)
	wg.Wait()
	for i, h := range handles {
		if h != handles[0] {
			t.Fatalf("reader %d got a different handle", i)
		}
	}
	if h := s.QuerySnapshot(snap); h != handles[0] {
		t.Fatal("the snapshot does not hold the handle its readers got")
	}
	after := s.Metrics()
	if got := after.IndexCacheMisses - before.IndexCacheMisses; got != 1 {
		t.Fatalf("first use counted %d misses, want 1", got)
	}
	if got := after.IndexBuilds - before.IndexBuilds; got != 1 {
		t.Fatalf("first use built %d indexes, want 1 (bicon)", got)
	}
	if got := after.IndexCacheHits - before.IndexCacheHits; got != readers {
		t.Fatalf("hits = %d, want %d (7 racers adopting the winner's handle, plus QuerySnapshot)", got, readers)
	}
}

// TestServiceQueryConcurrent is the -race hammer: writers churn versions
// through ApplyBatch while query goroutines resolve handles (current and
// retained old versions) and differentially verify every answer against
// naive recomputation on the handle's own pinned snapshot.
func TestServiceQueryConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const (
		graphs  = 4
		n       = 48
		updates = 60
		readers = 6
	)
	s := New(Config{Shards: 2})
	defer s.Close()
	ids := make([]GraphID, graphs)
	mirrors := make([]*graph.Persistent, graphs)
	for i := range ids {
		ids[i] = GraphID(fmt.Sprintf("g%d", i))
		g := graph.GnpConnected(n, 0.1, rng)
		mirrors[i] = g
		if _, err := s.CreateGraph(ids[i], g); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		wrng := rand.New(rand.NewSource(99))
		for step := 0; step < updates; step++ {
			var items []BatchItem
			for i, mirror := range mirrors {
				var u core.Update
				if e, ok := graph.RandomEdgeNotIn(mirror, wrng); ok && step%2 == 0 {
					mirrors[i] = mustGraph(mirror.InsertEdge(e.U, e.V))
					u = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
				} else if e, ok := graph.RandomExistingEdge(mirror, wrng); ok {
					mirrors[i] = mustGraph(mirror.DeleteEdge(e.U, e.V))
					u = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
				} else {
					continue
				}
				items = append(items, BatchItem{Graph: ids[i], Update: u})
			}
			futs, err := s.ApplyBatch(items)
			if err != nil {
				errs <- err
				return
			}
			for _, f := range futs {
				if _, _, err := f.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed))
			var retained []*QueryHandle
			for !stop.Load() {
				id := ids[rrng.Intn(len(ids))]
				h, err := s.Query(id)
				if err != nil {
					errs <- err
					return
				}
				if rrng.Intn(4) == 0 && len(retained) < 8 {
					retained = append(retained, h)
				}
				if err := verifyHandleQuietly(h, rrng); err != nil {
					errs <- err
					return
				}
				// Old pinned versions must answer for their own snapshot,
				// not the current one.
				if len(retained) > 0 {
					old := retained[rrng.Intn(len(retained))]
					if err := verifyHandleQuietly(old, rrng); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// verifyHandleQuietly is the goroutine-safe differential check (returns an
// error instead of calling testing.T from a non-test goroutine).
func verifyHandleQuietly(h *QueryHandle, rng *rand.Rand) error {
	tr, pseudo := h.Tree(), h.PseudoRoot()
	var live []int
	for _, v := range tr.Vertices() {
		if v != pseudo {
			live = append(live, v)
		}
	}
	u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
	got, err := h.LCA(u, v)
	if err != nil {
		return err
	}
	if want := queryNaiveLCA(tr, u, v, pseudo); got != want {
		return fmt.Errorf("handle @%d: LCA(%d,%d) = %d, naive %d", h.Version(), u, v, got, want)
	}
	agg, err := h.SubtreeAgg(u)
	if err != nil {
		return err
	}
	if want := len(tr.SubtreeVertices(u, nil)); agg.Size != want {
		return fmt.Errorf("handle @%d: SubtreeAgg(%d).Size = %d, scan %d", h.Version(), u, agg.Size, want)
	}
	if k := rng.Intn(6); true {
		gotK, err := h.KthAncestor(u, k)
		if err != nil {
			return err
		}
		wantK := u
		for i := 0; i < k && wantK >= 0; i++ {
			wantK = tr.Parent[wantK]
			if wantK == pseudo || wantK == tree.None {
				wantK = -1
			}
		}
		if gotK != wantK {
			return fmt.Errorf("handle @%d: KthAncestor(%d,%d) = %d, naive %d", h.Version(), u, k, gotK, wantK)
		}
	}
	if _, err := h.SameBiconnectedComponent(u, v); err != nil {
		return err
	}
	return nil
}
