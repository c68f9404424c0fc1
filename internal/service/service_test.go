package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func mustCreate(t *testing.T, s *Service, id GraphID, g *graph.Persistent) *Snapshot {
	t.Helper()
	snap, err := s.CreateGraph(id, g)
	if err != nil {
		t.Fatalf("CreateGraph(%q): %v", id, err)
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("initial snapshot of %q invalid: %v", id, err)
	}
	return snap
}

// mustGraph unwraps a graph update the test's mirror knows is valid.
func mustGraph(g *graph.Persistent, err error) *graph.Persistent {
	if err != nil {
		panic(err)
	}
	return g
}

// TestCreateGraphRejectsNil: a nil graph is refused before it reaches the
// shard loop, which would otherwise dereference it and take the process
// down; the shard keeps serving its other graphs.
func TestCreateGraphRejectsNil(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	if snap, err := s.CreateGraph("nil", nil); err == nil || snap != nil {
		t.Fatalf("CreateGraph(nil) = %v, %v; want an error", snap, err)
	}
	if _, err := s.Snapshot("nil"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("rejected graph is registered: %v", err)
	}
	mustCreate(t, s, "live", graph.Path(8))
	fut, err := s.Apply("live", core.Update{Kind: core.InsertEdge, U: 0, V: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Verify(); err != nil || !snap.Graph.HasEdge(0, 7) {
		t.Fatalf("shard stopped serving after the rejected create: %v", err)
	}
}

func TestServiceBasic(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	g := graph.GnpConnected(64, 4.0/64, rng)
	mustCreate(t, s, "g1", g)

	if _, err := s.CreateGraph("g1", g); !errors.Is(err, ErrGraphExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := s.Snapshot("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("missing graph: %v", err)
	}

	// One of each update kind, each future's snapshot verified.
	e, ok := graph.RandomEdgeNotIn(g, rng)
	if !ok {
		t.Fatal("no absent edge")
	}
	steps := []core.Update{
		{Kind: core.InsertEdge, U: e.U, V: e.V},
		{Kind: core.DeleteEdge, U: e.U, V: e.V},
		{Kind: core.InsertVertex, Neighbors: []int{0, 1}},
	}
	var version uint64
	for i, u := range steps {
		fut, err := s.Apply("g1", u)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		v, snap, err := fut.Wait()
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if u.Kind == core.InsertVertex && v < 0 {
			t.Fatalf("InsertVertex returned id %d", v)
		}
		if snap.Version <= version {
			t.Fatalf("update %d: version %d did not advance past %d", i, snap.Version, version)
		}
		version = snap.Version
		if err := snap.Verify(); err != nil {
			t.Fatalf("update %d: snapshot invalid: %v", i, err)
		}
	}

	// Read API against the latest snapshot.
	tr, pseudo, err := s.Tree("g1")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.IsAncestor("g1", pseudo, 0); err != nil || !ok {
		t.Fatalf("pseudo root must be everyone's ancestor: %v %v", ok, err)
	}
	if _, err := s.IsAncestor("g1", tr.N()+7, 0); err == nil {
		t.Fatal("IsAncestor on a non-vertex must error")
	}
	path, err := s.Path("g1", 0, pseudo)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 || path[0] != 0 || path[len(path)-1] != pseudo {
		t.Fatalf("bad path %v", path)
	}
	if err := s.Verify("g1"); err != nil {
		t.Fatal(err)
	}

	// A rejected update reports the maintainer error and leaves state valid.
	fut, err := s.Apply("g1", core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fut.Wait(); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := s.Verify("g1"); err != nil {
		t.Fatal(err)
	}

	if err := s.DropGraph("g1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot("g1"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("dropped graph still resolves: %v", err)
	}
}

// TestServiceSnapshotIsolation pins a snapshot, applies updates, and checks
// the old snapshot is untouched while new snapshots advance.
// TestServiceDeleteEdgeOutOfRange sends DeleteEdge updates naming vertex
// IDs outside the graph: each future resolves with an error, the shard
// loop survives, and the next Apply on the same graph succeeds.
func TestServiceDeleteEdgeOutOfRange(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	mustCreate(t, s, "g", graph.Path(4))
	for _, u := range []core.Update{
		{Kind: core.DeleteEdge, U: 0, V: 1 << 20},
		{Kind: core.DeleteEdge, U: -1, V: 0},
	} {
		fut, err := s.Apply("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err == nil {
			t.Fatalf("DeleteEdge(%d,%d) accepted", u.U, u.V)
		}
	}
	fut, err := s.Apply("g", core.Update{Kind: core.InsertEdge, U: 0, V: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := fut.Wait()
	if err != nil {
		t.Fatalf("next update after rejections: %v", err)
	}
	if err := snap.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceSnapshotIsolation(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	g := graph.GnpConnected(96, 4.0/96, rng)
	old := mustCreate(t, s, "iso", g)
	oldEdges := old.Graph.NumEdges()

	for i := 0; i < 10; i++ {
		if e, ok := graph.RandomEdgeNotIn(old.Graph, rng); ok {
			fut, err := s.Apply("iso", core.Update{Kind: core.InsertEdge, U: e.U, V: e.V})
			if err != nil {
				t.Fatal(err)
			}
			fut.Wait() // conflicts tolerated; old.Graph is a stale view
		}
	}
	if old.Version != 0 || old.Graph.NumEdges() != oldEdges {
		t.Fatalf("pinned snapshot mutated: version %d edges %d (want 0, %d)",
			old.Version, old.Graph.NumEdges(), oldEdges)
	}
	if err := old.Verify(); err != nil {
		t.Fatalf("pinned snapshot no longer verifies: %v", err)
	}
	cur, err := s.Snapshot("iso")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version == 0 {
		t.Fatal("current snapshot did not advance")
	}
	if err := cur.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceSnapshotLongevity retains a version-k snapshot across 1000
// later updates: it must still verify against its own tree, and its edge
// set must be byte-identical to the clone captured at publication time —
// the copy-on-write graph may share rows with later versions but must never
// let a later update show through a retained version.
func TestServiceSnapshotLongevity(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(9))
	const n, pinAfter, updates = 64, 7, 1000
	g := graph.GnpConnected(n, 4.0/float64(n), rng)
	snap := mustCreate(t, s, "long", g)
	mirror := snap.Graph

	apply := func(k int) {
		for applied := 0; applied < k; {
			var u core.Update
			if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok && rng.Intn(2) == 0 {
				mirror = mustGraph(mirror.InsertEdge(e.U, e.V))
				u = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
			} else if e, ok := graph.RandomExistingEdge(mirror, rng); ok {
				mirror = mustGraph(mirror.DeleteEdge(e.U, e.V))
				u = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
			} else {
				continue
			}
			fut, err := s.Apply("long", u)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
			applied++
		}
	}

	apply(pinAfter)
	pinned, err := s.Snapshot("long")
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Version != pinAfter {
		t.Fatalf("pinned snapshot at version %d, want %d", pinned.Version, pinAfter)
	}
	// The clone-based ground truth: Edges() materializes an independent
	// copy of the mirror's edge set at pin time.
	cloneEdges := mirror.Edges()
	pinnedTree := pinned.Tree

	apply(updates)

	cur, err := s.Snapshot("long")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != pinAfter+updates {
		t.Fatalf("current snapshot at version %d, want %d", cur.Version, pinAfter+updates)
	}
	if pinned.Tree != pinnedTree || pinned.Version != pinAfter {
		t.Fatal("pinned snapshot fields mutated")
	}
	if err := pinned.Verify(); err != nil {
		t.Fatalf("pinned snapshot no longer verifies after %d updates: %v", updates, err)
	}
	got := pinned.Graph.Edges()
	if len(got) != len(cloneEdges) {
		t.Fatalf("pinned edge count %d, clone-based %d", len(got), len(cloneEdges))
	}
	for i := range got {
		if got[i] != cloneEdges[i] {
			t.Fatalf("edge %d: pinned %v, clone-based %v", i, got[i], cloneEdges[i])
		}
	}
	if err := cur.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceConcurrentReadersWriters is the -race hammer: one Service,
// four shards, eight graphs, dedicated writers submitting mixed updates
// (singles and coalesced batches) while readers continuously serve
// ancestry/path queries and cross-check snapshots with the DFS verifier.
func TestServiceConcurrentReadersWriters(t *testing.T) {
	const (
		shards  = 4
		graphs  = 8
		updates = 60
		readers = 4
		n       = 48
	)
	s := New(Config{Shards: shards, MailboxDepth: 32})
	defer s.Close()

	ids := make([]GraphID, graphs)
	for i := range ids {
		ids[i] = GraphID(fmt.Sprintf("tenant-%d", i))
		rng := rand.New(rand.NewSource(int64(100 + i)))
		mustCreate(t, s, ids[i], graph.GnpConnected(n, 4.0/float64(n), rng))
	}

	var stop atomic.Bool
	var wgWriters, wgReaders sync.WaitGroup
	errc := make(chan error, graphs+readers)

	// Writers: one per graph (so each writer's mirror stays exact), issuing
	// singles and occasional coalesced batches, verifying every future's
	// snapshot.
	for i, id := range ids {
		wgWriters.Add(1)
		go func(i int, id GraphID) {
			defer wgWriters.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			snap, err := s.Snapshot(id)
			if err != nil {
				errc <- err
				return
			}
			mirror := snap.Graph
			nextUpdate := func() (core.Update, bool) {
				if rng.Intn(2) == 0 {
					if e, ok := graph.RandomEdgeNotIn(mirror, rng); ok {
						mirror = mustGraph(mirror.InsertEdge(e.U, e.V))
						return core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}, true
					}
				}
				if e, ok := graph.RandomExistingEdge(mirror, rng); ok {
					mirror = mustGraph(mirror.DeleteEdge(e.U, e.V))
					return core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}, true
				}
				return core.Update{}, false
			}
			for k := 0; k < updates; k++ {
				var futs []*Future
				if k%8 == 0 {
					// Coalesced round of 3 updates on this graph.
					var items []BatchItem
					for j := 0; j < 3; j++ {
						if u, ok := nextUpdate(); ok {
							items = append(items, BatchItem{Graph: id, Update: u})
						}
					}
					fs, err := s.ApplyBatch(items)
					if err != nil {
						errc <- err
						return
					}
					futs = fs
				} else {
					u, ok := nextUpdate()
					if !ok {
						continue
					}
					fut, err := s.Apply(id, u)
					if err != nil {
						errc <- err
						return
					}
					futs = []*Future{fut}
				}
				for _, fut := range futs {
					if _, snap, err := fut.Wait(); err != nil {
						errc <- fmt.Errorf("%s update %d: %w", id, k, err)
						return
					} else if err := snap.Verify(); err != nil {
						errc <- fmt.Errorf("%s update %d: snapshot invalid: %w", id, k, err)
						return
					}
				}
			}
		}(i, id)
	}

	// Readers: random snapshot reads across all graphs; every snapshot read
	// is verified against its own frozen graph, and ancestry answers are
	// cross-checked against that snapshot's tree.
	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func(r int) {
			defer wgReaders.Done()
			rng := rand.New(rand.NewSource(int64(2000 + r)))
			for !stop.Load() {
				id := ids[rng.Intn(len(ids))]
				snap, err := s.Snapshot(id)
				if err != nil {
					errc <- err
					return
				}
				if err := snap.Verify(); err != nil {
					errc <- fmt.Errorf("reader %d: %s@%d: %w", r, id, snap.Version, err)
					return
				}
				u, v := rng.Intn(n), rng.Intn(n)
				if snap.Tree.Present(u) && snap.Tree.Present(v) {
					got, err := snap.IsAncestor(u, v)
					if err != nil {
						errc <- err
						return
					}
					if got != snap.Tree.IsAncestor(u, v) {
						errc <- fmt.Errorf("reader %d: inconsistent ancestry", r)
						return
					}
				}
				if _, _, err := s.Tree(id); err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}

	// Wait for the writers (collecting any error as it happens), then stop
	// the readers and drain any error they raised.
	writersDone := make(chan struct{})
	go func() {
		wgWriters.Wait()
		close(writersDone)
	}()
	var firstErr error
	for done := false; !done; {
		select {
		case err := <-errc:
			if firstErr == nil {
				firstErr = err
			}
			stop.Store(true)
		case <-writersDone:
			done = true
		}
	}
	stop.Store(true)
	wgReaders.Wait()
	select {
	case err := <-errc:
		if firstErr == nil {
			firstErr = err
		}
	default:
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	m := s.Metrics()
	if m.Updates == 0 {
		t.Fatal("no updates recorded")
	}
	busy := 0
	for _, sm := range m.Shards {
		if sm.Updates > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("expected load on several shards, got %d busy of %d", busy, len(m.Shards))
	}
	if m.Graphs != graphs {
		t.Fatalf("metrics report %d graphs, want %d", m.Graphs, graphs)
	}
}

// TestServiceCloseDrains checks that Close processes every enqueued task,
// resolves its future, rejects later submissions, and keeps reads working.
func TestServiceCloseDrains(t *testing.T) {
	s := New(Config{Shards: 2, MailboxDepth: 64})
	rng := rand.New(rand.NewSource(5))
	g := graph.GnpConnected(48, 4.0/48, rng)
	snap := mustCreate(t, s, "drain", g)

	mirror := snap.Graph
	var futs []*Future
	for i := 0; i < 20; i++ {
		e, ok := graph.RandomEdgeNotIn(mirror, rng)
		if !ok {
			break
		}
		mirror = mustGraph(mirror.InsertEdge(e.U, e.V))
		fut, err := s.Apply("drain", core.Update{Kind: core.InsertEdge, U: e.U, V: e.V})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		if _, _, err := fut.Wait(); err != nil {
			t.Fatalf("drained update %d failed: %v", i, err)
		}
	}
	if _, err := s.Apply("drain", core.Update{Kind: core.InsertVertex}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close apply: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	// Reads still served from the last snapshot.
	cur, err := s.Snapshot("drain")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != uint64(len(futs)) {
		t.Fatalf("drained %d updates, snapshot at version %d", len(futs), cur.Version)
	}
	if err := cur.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceApplyBatchCrossGraph coalesces a batch spanning graphs on
// different shards and checks per-item resolution and one publication per
// graph per round.
func TestServiceApplyBatchCrossGraph(t *testing.T) {
	s := New(Config{Shards: 4})
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	var items []BatchItem
	for i := 0; i < 6; i++ {
		id := GraphID(fmt.Sprintf("bg-%d", i))
		g := graph.GnpConnected(32, 4.0/32, rng)
		snap := mustCreate(t, s, id, g)
		e, ok := graph.RandomEdgeNotIn(snap.Graph, rng)
		if !ok {
			t.Fatal("no absent edge")
		}
		items = append(items,
			BatchItem{Graph: id, Update: core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}},
			BatchItem{Graph: id, Update: core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}})
	}
	items = append(items, BatchItem{Graph: "missing", Update: core.Update{Kind: core.InsertVertex}})
	futs, err := s.ApplyBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		_, snap, err := fut.Wait()
		if items[i].Graph == "missing" {
			if !errors.Is(err, ErrUnknownGraph) {
				t.Fatalf("missing-graph item: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		// Both updates of a graph share the round-final snapshot.
		if snap.Version != 2 {
			t.Fatalf("item %d: round-final snapshot at version %d, want 2", i, snap.Version)
		}
		if err := snap.Verify(); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
}
