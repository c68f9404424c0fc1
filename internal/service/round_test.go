package service

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wal"
)

// TestApplyBatchOnFailStoppedShard pins that a batch entry rejected by a
// fail-stopped shard resolves like a rejected Apply: with the graph's last
// published snapshot and the sticky WAL failure.
func TestApplyBatchOnFailStoppedShard(t *testing.T) {
	g := graph.GnpConnected(16, 0.3, rand.New(rand.NewSource(3)))
	// Count the I/O operations that opening and creating the graph take, so
	// a second run can fail the first append after them.
	probe := &wal.Injector{}
	s, err := Open(Config{Shards: 1, WAL: &WALConfig{Dir: t.TempDir(), Injector: probe}})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, "g", g)
	ops := probe.Ops()
	s.Close()

	inj := &wal.Injector{FailAt: ops + 1, Mode: wal.InjectFailWrite}
	s, err = Open(Config{Shards: 1, WAL: &WALConfig{Dir: t.TempDir(), Injector: inj}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	created := mustCreate(t, s, "g", g)
	rng := rand.New(rand.NewSource(4))
	e, _ := graph.RandomEdgeNotIn(g, rng)
	fut, err := s.Apply("g", core.Update{Kind: core.InsertEdge, U: e.U, V: e.V})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fut.Wait(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Apply on a failing log = %v, want ErrInjected", err)
	}

	e, _ = graph.RandomEdgeNotIn(g, rng)
	futs, err := s.ApplyBatch([]BatchItem{{Graph: "g", Update: core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}}})
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := futs[0].Wait()
	if !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("batch entry on a fail-stopped shard = %v, want the sticky ErrInjected", err)
	}
	if snap != created {
		t.Fatalf("batch entry on a fail-stopped shard resolved with snapshot %v, want the last published (version %d)",
			snap, created.Version)
	}
}

// TestApplyRoundForwardsFromFailStoppedShard pins that ownership is
// resolved before the WAL gate: a fail-stopped shard still forwards a round
// entry for a graph that migrated away, and the owner applies it.
func TestApplyRoundForwardsFromFailStoppedShard(t *testing.T) {
	s, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := graph.GnpConnected(16, 0.3, rand.New(rand.NewSource(5)))
	mustCreate(t, s, "g", g)
	src := s.shardFor("g")
	dst := 1 - src.idx
	if err := s.MigrateGraph("g", dst); err != nil {
		t.Fatal(err)
	}
	src.w.fail(errors.New("injected: source log lost"))

	// A round submitted against the stale route, as an ApplyBatch racing
	// the migration would.
	e, _ := graph.RandomEdgeNotIn(g, rand.New(rand.NewSource(6)))
	fut := newFuture()
	entries := []roundEntry{{id: "g", upd: core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}, fut: fut}}
	if err := src.submit(task{kind: taskApply, entries: entries}); err != nil {
		t.Fatal(err)
	}
	_, snap, err := fut.Wait()
	if err != nil {
		t.Fatalf("entry for a migrated graph on a fail-stopped shard: %v, want it forwarded and applied", err)
	}
	if snap.Version != 1 || !snap.Graph.HasEdge(e.U, e.V) {
		t.Fatalf("forwarded entry resolved with version %d (edge present %v), want version 1 with the edge",
			snap.Version, snap.Graph.HasEdge(e.U, e.V))
	}
}

// TestApplyRoundPublishOnce drives Apply calls and multi-graph ApplyBatch
// rounds through a WAL-on service and checks that every publish is counted
// once, in both the stage breakdown and the publish histogram, and that a
// single-item ApplyBatch behaves exactly like an Apply: same vertex,
// version and tree, one WAL record, and one traced update with its
// publish span.
func TestApplyRoundPublishOnce(t *testing.T) {
	s, err := Open(Config{Shards: 2, SlowTraces: 1024, WAL: &WALConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	g := graph.GnpConnected(24, 0.2, rng)
	publishCountedOnce := func() {
		t.Helper()
		m := s.Metrics()
		if m.Stages.Publish <= 0 || int64(m.Stages.Publish) != m.PublishHist.Sum {
			t.Fatalf("stage breakdown holds %v of publish time, publish histogram %v: each publish must count once in both",
				m.Stages.Publish, m.PublishHist.Sum)
		}
	}
	ids := []GraphID{"a", "b", "c", "d"}
	for _, id := range ids {
		mustCreate(t, s, id, g)
	}

	// Mixed traffic on c and d: insert a few edges in cross-graph rounds,
	// then delete them again one Apply at a time.
	for round := 0; round < 6; round++ {
		var items []BatchItem
		var added []graph.Edge
		for len(added) < 3 {
			e, _ := graph.RandomEdgeNotIn(g, rng)
			if slices.Contains(added, e) {
				continue
			}
			added = append(added, e)
			for _, id := range ids[2:] {
				items = append(items, BatchItem{Graph: id, Update: core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}})
			}
		}
		futs, err := s.ApplyBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range futs {
			if _, _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range added {
			for _, id := range ids[2:] {
				fut, err := s.Apply(id, core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := fut.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	publishCountedOnce()

	// Twins: the same vertex insertion through either entry point.
	u := core.Update{Kind: core.InsertVertex, Neighbors: []int{0, 5, 11}}
	apply := func(id GraphID, batch bool) (int, *Snapshot) {
		t.Helper()
		before := s.Metrics().WALAppends
		var fut *Future
		if batch {
			futs, err := s.ApplyBatch([]BatchItem{{Graph: id, Update: u}})
			if err != nil {
				t.Fatal(err)
			}
			fut = futs[0]
		} else if fut, err = s.Apply(id, u); err != nil {
			t.Fatal(err)
		}
		v, snap, err := fut.Wait()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := s.Metrics().WALAppends - before; n != 1 {
			t.Fatalf("%s: one update appended %d WAL records, want 1", id, n)
		}
		return v, snap
	}
	va, sa := apply("a", false)
	vb, sb := apply("b", true)
	if va != vb || sa.Version != sb.Version || sa.PseudoRoot != sb.PseudoRoot ||
		!slices.Equal(sa.Tree.Parent, sb.Tree.Parent) {
		t.Fatalf("Apply gave vertex %d at version %d, single-item ApplyBatch vertex %d at version %d (trees equal: %v)",
			va, sa.Version, vb, sb.Version, slices.Equal(sa.Tree.Parent, sb.Tree.Parent))
	}
	for _, snap := range []*Snapshot{sa, sb} {
		found := false
		for _, tr := range s.SlowTraces() {
			if tr.Graph != string(snap.ID) || tr.Version != snap.Version {
				continue
			}
			found = true
			if tr.Batch != 1 || tr.Publish <= 0 {
				t.Fatalf("%s: trace batch %d publish %v, want batch 1 and a publish span", snap.ID, tr.Batch, tr.Publish)
			}
		}
		if !found {
			t.Fatalf("%s: no trace for version %d", snap.ID, snap.Version)
		}
	}
	publishCountedOnce()
}
