package service

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestSnapshotIndexPlumbing follows the published LCA index end to end:
// every snapshot the maintainer publishes carries its tree, and with it
// the tree's own index, and Service.CheckSynced holds it against a fresh
// derivation after a restructuring update, a back edge (which keeps the
// tree and so shares the previous version's index), a batch round that
// relocates the pseudo root, a rejected update, MigrateGraph and WAL
// recovery, with and without a log tail to replay. The degraded checkpoint
// snapshot published before replay carries the index of the checkpoint's
// tree.
func TestSnapshotIndexPlumbing(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	g := graph.GnpConnected(60, 0.08, rng)
	cfg := Config{Shards: 2, Headroom: 2, WAL: &WALConfig{Dir: dir}}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { svc.Close() }()
	synced := func(ctx string, snap *Snapshot) {
		t.Helper()
		if err := svc.CheckSynced("g"); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
	apply := func(u core.Update) (*Snapshot, error) {
		t.Helper()
		fut, err := svc.Apply("g", u)
		if err != nil {
			t.Fatal(err)
		}
		_, snap, err := fut.Wait()
		return snap, err
	}

	snap0 := mustCreate(t, svc, "g", g)
	synced("create", snap0)

	// A cross edge restructures the tree: a new tree, a new index.
	tr := snap0.Tree
	var u, v int
	found := false
	for x := 0; x < g.NumVertexSlots() && !found; x++ {
		for y := x + 1; y < g.NumVertexSlots() && !found; y++ {
			if !g.HasEdge(x, y) && !tr.IsAncestor(x, y) && !tr.IsAncestor(y, x) {
				u, v, found = x, y, true
			}
		}
	}
	if !found {
		t.Fatal("no cross edge candidate")
	}
	snap1, err := apply(core.Update{Kind: core.InsertEdge, U: u, V: v})
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Tree == snap0.Tree {
		t.Fatal("cross-edge insert kept the tree or its index")
	}
	synced("cross edge", snap1)

	// A back edge (ancestor-descendant pair) keeps the tree and its index.
	tr = snap1.Tree
	found = false
	for x := 0; x < g.NumVertexSlots() && !found; x++ {
		for y := 0; y < g.NumVertexSlots() && !found; y++ {
			if x != y && x != snap1.PseudoRoot && tr.Present(x) && tr.Present(y) &&
				tr.IsAncestor(x, y) && !snap1.Graph.HasEdge(x, y) {
				u, v, found = x, y, true
			}
		}
	}
	if !found {
		t.Fatal("no back edge candidate")
	}
	snap2, err := apply(core.Update{Kind: core.InsertEdge, U: u, V: v})
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Tree != snap1.Tree {
		t.Fatal("back-edge versions do not share the tree and its index")
	}
	synced("back edge", snap2)

	// A batch round publishes once. With Headroom 2 the second vertex
	// insert relocates the pseudo root, renumbering the tree.
	futs, err := svc.ApplyBatch([]BatchItem{
		{Graph: "g", Update: core.Update{Kind: core.InsertVertex, Neighbors: []int{1, 7}}},
		{Graph: "g", Update: core.Update{Kind: core.InsertVertex, Neighbors: []int{2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap3 *Snapshot
	for _, f := range futs {
		if _, s, err := f.Wait(); err != nil {
			t.Fatal(err)
		} else {
			snap3 = s
		}
	}
	if snap3.Version != snap2.Version+2 {
		t.Fatalf("batch snapshot version %d, want %d", snap3.Version, snap2.Version+2)
	}
	if snap3.PseudoRoot == snap2.PseudoRoot {
		t.Fatal("batch round did not relocate the pseudo root")
	}
	synced("batch with relocation", snap3)

	// A rejected update publishes nothing; the next update's index is in
	// sync all the same.
	if _, err := apply(core.Update{Kind: core.InsertEdge, U: u, V: v}); err == nil {
		t.Fatal("duplicate edge insert was accepted")
	}
	snap4, err := apply(core.Update{Kind: core.DeleteEdge, U: u, V: v})
	if err != nil {
		t.Fatal(err)
	}
	synced("after a rejected update", snap4)

	// MigrateGraph rebuilds the maintainer on the destination shard and
	// publishes its index there.
	dst := 1 - svc.shardFor("g").idx
	if err := svc.MigrateGraph("g", dst); err != nil {
		t.Fatal(err)
	}
	snap5, err := svc.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	synced("migrated", snap5)
	// One more update leaves a log tail for recovery to replay.
	if _, err := apply(core.Update{Kind: core.InsertEdge, U: u, V: v}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery first publishes the degraded checkpoint snapshot, then the
	// replayed state with the restored maintainer's tree.
	hold := make(chan struct{})
	cfg.WAL = &WALConfig{Dir: dir, holdRecovery: hold}
	if svc, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	degraded, err := svc.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := degraded.Tree.CheckIndex(); err != nil {
		t.Fatalf("degraded checkpoint snapshot: %v", err)
	}
	close(hold)
	svc.WaitRecovered()
	snap6, err := svc.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if snap6.Version != snap5.Version+1 {
		t.Fatalf("recovered version %d, want %d", snap6.Version, snap5.Version+1)
	}
	synced("recovered", snap6)

	// The recovery above folded the tail into fresh checkpoints, so this
	// one replays nothing; the restored maintainer's snapshot replaces the
	// degraded one all the same.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.WAL = &WALConfig{Dir: dir}
	if svc, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	svc.WaitRecovered()
	if got := svc.Metrics().WALReplayed; got != 0 {
		t.Fatalf("second recovery replayed %d records, want 0", got)
	}
	snap7, err := svc.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	synced("recovered without a tail", snap7)
}

// TestCheckSyncedCatchesForeignIndex pins that the published-index oracle
// is not vacuous: a snapshot carrying another graph's tree, and so that
// tree's index, fails Service.CheckSynced.
func TestCheckSyncedCatchesForeignIndex(t *testing.T) {
	svc := New(Config{Shards: 1})
	defer svc.Close()
	rng := rand.New(rand.NewSource(9))
	snap := mustCreate(t, svc, "g", graph.GnpConnected(40, 0.1, rng))
	other := mustCreate(t, svc, "h", graph.GnpConnected(40, 0.1, rng))
	if err := svc.CheckSynced("g"); err != nil {
		t.Fatal(err)
	}
	forged := *snap
	forged.Tree = other.Tree
	svc.shardFor("g").lookup("g").snap.Store(&forged)
	if err := svc.CheckSynced("g"); err == nil {
		t.Fatal("a snapshot with another tree's index passed CheckSynced")
	}
}

// TestQueryUsesPublishedIndex drives the read path across versions: LCA
// and level-ancestor queries on each newly published version build no
// index (the handle reads the snapshot tree's own), the handle's answers
// match naive recomputation, and warming builds only the aggregates and
// bicon.
func TestQueryUsesPublishedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.GnpConnected(200, 0.025, rng)
	svc := New(Config{Shards: 1})
	defer svc.Close()
	if _, err := svc.CreateGraph("g", g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		snap, err := svc.Snapshot("g")
		if err != nil {
			t.Fatal(err)
		}
		// Delete a leaf: a new tree version each round.
		tr := snap.Tree
		leaf := -1
		for v := 0; v < g.NumVertexSlots(); v++ {
			if tr.Present(v) && v != snap.PseudoRoot && len(tr.Children(v)) == 0 {
				leaf = v
				break
			}
		}
		fut, err := svc.Apply("g", core.Update{Kind: core.DeleteVertex, U: leaf})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		before := svc.Metrics().IndexBuilds
		h, err := svc.Query("g")
		if err != nil {
			t.Fatal(err)
		}
		live := h.Tree().Vertices()
		for j := 0; j < 16; j++ {
			a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if a == h.PseudoRoot() || b == h.PseudoRoot() {
				continue
			}
			if _, err := h.LCA(a, b); err != nil {
				t.Fatal(err)
			}
			if _, err := h.KthAncestor(a, j%4); err != nil {
				t.Fatal(err)
			}
		}
		if got := svc.Metrics().IndexBuilds - before; got != 0 {
			t.Fatalf("round %d: LCA and level-ancestor queries built %d indexes, want 0", i, got)
		}
		h.Warm()
		if got := svc.Metrics().IndexBuilds - before; got != 2 {
			t.Fatalf("round %d: warming built %d indexes, want 2 (agg, bicon)", i, got)
		}
		if err := h.CheckSynced(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		checkHandleAgainstPinned(t, h, rng, "published")
	}
}
