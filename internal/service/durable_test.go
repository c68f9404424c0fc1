package service

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestMigrateCommitFailureAborts drives a migration whose install succeeds
// but whose route commit fails (the route log's file is closed under it).
// The destination must tear its copy down and recompute its processor
// budget, and the source must resume: writes parked during the freeze
// apply there in submission order, and the graph keeps taking writes.
func TestMigrateCommitFailureAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s, err := Open(Config{Shards: 3, WAL: &WALConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := idOnShard(0, 3, "abort")
	g := graph.GnpConnected(96, 6.0/96, rng)
	mustCreate(t, s, id, g)
	small := mustCreate(t, s, idOnShard(1, 3, "resident"), graph.Path(5))
	src, dst := s.shards[0], s.shards[1]
	wantProcs := core.ModelProcs(small.Graph)
	if got := s.Metrics().Shards[1].PRAMProcs; got != wantProcs {
		t.Fatalf("destination procs before migration = %d, want %d", got, wantProcs)
	}
	before := s.mustSnap(t, id)
	e, ok := graph.RandomEdgeNotIn(before.Graph, rng)
	if !ok {
		t.Fatal("graph is complete")
	}

	// Wedge the destination loop so the migration stops between freeze and
	// install, and make the commit fail once it gets there.
	release := make(chan struct{})
	if err := dst.submit(task{kind: taskFunc, fn: func() { <-release }, fut: newFuture()}); err != nil {
		t.Fatal(err)
	}
	s.routeLog.Close()
	failuresBefore := s.Metrics().MigrationFailures
	migErr := make(chan error, 1)
	go func() { migErr <- s.MigrateGraph(id, 1) }()
	onSrc := func(cond func(gs *graphState) bool) {
		t.Helper()
		for !errors.Is(s.runOn(src, func() error {
			if gs := src.lookup(id); gs != nil && cond(gs) {
				return errDone
			}
			return nil
		}), errDone) {
		}
	}
	onSrc(func(gs *graphState) bool { return gs.migrating })

	// Park an insert and the delete of the same edge: applied out of order,
	// the delete would be rejected.
	var futs []*Future
	for _, kind := range []core.UpdateKind{core.InsertEdge, core.DeleteEdge} {
		fut, err := s.Apply(id, core.Update{Kind: kind, U: e.U, V: e.V})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	onSrc(func(gs *graphState) bool { return len(gs.deferred) == len(futs) })
	close(release)

	if err := <-migErr; err == nil {
		t.Fatal("MigrateGraph succeeded with a closed route log")
	}
	if got := s.Metrics().MigrationFailures; got != failuresBefore+1 {
		t.Fatalf("MigrationFailures = %d, want %d", got, failuresBefore+1)
	}
	for i, fut := range futs {
		if _, snap, err := fut.Wait(); err != nil {
			t.Fatalf("parked update %d: %v", i, err)
		} else if snap.Version != before.Version+uint64(i)+1 {
			t.Fatalf("parked update %d published version %d, want %d", i, snap.Version, before.Version+uint64(i)+1)
		}
	}
	if s.shardFor(id) != src || ownerCount(s, id) != 1 || dst.lookup(id) != nil {
		t.Fatal("graph is not back on the source alone")
	}
	if got := s.Metrics().Shards[1].PRAMProcs; got != wantProcs {
		t.Fatalf("destination procs after abort = %d, want %d", got, wantProcs)
	}
	after := s.mustSnap(t, id)
	if !sameEdges(edgeSet(after.Graph), edgeSet(before.Graph)) {
		t.Fatal("insert+delete of one edge changed the edge set")
	}
	drive(t, s, id, after.Graph, rng, 6)
	if err := s.CheckSynced(id); err != nil {
		t.Fatal(err)
	}
}

var errDone = errors.New("condition holds")

// TestOpenRemovesTempFiles plants the temp files a crash mid-rewrite
// leaves behind — a checkpoint's, the route log's, and the randomly named
// route-log temp of older builds — and checks that Open deletes them, keeps
// files that only look similar, and recovers the same state.
func TestOpenRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, WAL: &WALConfig{Dir: dir}}
	rng := rand.New(rand.NewSource(31))
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := GraphID("tmp/graph")
	g := graph.GnpConnected(48, 5.0/48, rng)
	mustCreate(t, s, id, g)
	drive(t, s, id, g, rng, 12)
	want := s.mustSnap(t, id)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ckTemp := fmt.Sprintf(".ck-%s-%016x.ckpt.tmp", hex.EncodeToString([]byte(id)), want.Version+1)
	temps := []string{ckTemp, ".routes.wal.tmp", "routes.wal.tmp-123456"}
	keep := []string{"notes.tmp", ".ck-zz.tmp"}
	for _, name := range append(append([]string{}, temps...), keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.WaitRecovered()
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("temp file %s survived Open (stat: %v)", name, err)
		}
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("Open removed %s, which is no temp file of the WAL: %v", name, err)
		}
	}
	got := r.mustSnap(t, id)
	if got.Version != want.Version || !sameEdges(edgeSet(got.Graph), edgeSet(want.Graph)) {
		t.Fatalf("recovered version %d, want %d (or edge sets differ)", got.Version, want.Version)
	}
	if err := r.CheckSynced(id); err != nil {
		t.Fatal(err)
	}
}
