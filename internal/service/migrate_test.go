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

// idOnShard returns a fresh GraphID that hashes to shard want of shards.
func idOnShard(want, shards int, salt string) GraphID {
	for i := 0; ; i++ {
		id := GraphID(fmt.Sprintf("%s%d", salt, i))
		if shardIndex(id, shards) == want {
			return id
		}
	}
}

// ownerCount returns how many shards currently hold id's graphState — must
// be exactly 1 for any live graph, during and after migrations.
func ownerCount(s *Service, id GraphID) int {
	n := 0
	for _, sh := range s.shards {
		if sh.lookup(id) != nil {
			n++
		}
	}
	return n
}

func TestMigrateGraphBasic(t *testing.T) {
	s := New(Config{Shards: 3})
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	g := graph.GnpConnected(64, 4.0/64, rng)
	id := idOnShard(0, 3, "mig")
	mustCreate(t, s, id, g)
	drive(t, s, id, g, rng, 10)

	before, err := s.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateGraph(id, 2); err != nil {
		t.Fatalf("MigrateGraph: %v", err)
	}
	if got := ownerCount(s, id); got != 1 {
		t.Fatalf("graph on %d shards after migration, want 1", got)
	}
	if s.shardFor(id) != s.shards[2] {
		t.Fatal("routing table does not point at the destination")
	}
	if s.RoutedGraphs() != 1 {
		t.Fatalf("RoutedGraphs = %d, want 1", s.RoutedGraphs())
	}
	after, err := s.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version {
		t.Fatalf("migration changed the version: %d -> %d", before.Version, after.Version)
	}
	if err := after.Verify(); err != nil {
		t.Fatalf("post-flip snapshot: %v", err)
	}

	// The graph keeps taking writes and queries on its new shard.
	drive(t, s, id, after.Graph, rng, 10)
	if err := s.CheckSynced(id); err != nil {
		t.Fatalf("CheckSynced after migration: %v", err)
	}
	h, err := s.Query(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.LCA(0, 1); err != nil {
		t.Fatal(err)
	}
	tm, err := s.TenantMetrics(id)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Shard != 2 {
		t.Fatalf("tenant attributed to shard %d, want 2", tm.Shard)
	}
	if tm.Applied == 0 {
		t.Fatal("tenant meter did not survive the migration")
	}

	m := s.Metrics()
	if m.Migrations != 1 || m.Shards[0].MigrationsOut != 1 || m.Shards[2].MigrationsIn != 1 {
		t.Fatalf("migration counters: total=%d out0=%d in2=%d",
			m.Migrations, m.Shards[0].MigrationsOut, m.Shards[2].MigrationsIn)
	}
	if m.MigrationPauseHist.Count != 1 {
		t.Fatalf("pause histogram count = %d, want 1", m.MigrationPauseHist.Count)
	}

	// Migrating back to the hash shard normalizes the routing entry away.
	if err := s.MigrateGraph(id, 0); err != nil {
		t.Fatal(err)
	}
	if s.RoutedGraphs() != 0 {
		t.Fatalf("RoutedGraphs = %d after moving home, want 0", s.RoutedGraphs())
	}
	// No-op: already there.
	if err := s.MigrateGraph(id, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Migrations; got != 2 {
		t.Fatalf("migrations = %d, want 2 (no-op must not count)", got)
	}
}

func TestMigrateGraphErrors(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	// An id on shard 0 so the move to 1 is not a same-shard no-op.
	ghost := idOnShard(0, 2, "ghost")
	if err := s.MigrateGraph(ghost, 1); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v", err)
	}
	if err := s.MigrateGraph("x", 5); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if got := s.Metrics().MigrationFailures; got != 1 {
		t.Fatalf("failures = %d, want 1 (range error is caller error, not an attempt)", got)
	}
}

// TestMigrateDurable proves the route record is durable: after a migration
// and a clean close, reopening the directory places the graph on the
// migrated-to shard (not its hash shard) with its full state.
func TestMigrateDurable(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	g := graph.GnpConnected(64, 4.0/64, rng)
	id := idOnShard(0, 3, "dur")
	cfg := Config{Shards: 3, WAL: &WALConfig{Dir: dir}}

	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, id, g)
	drive(t, s, id, g, rng, 8)
	if err := s.MigrateGraph(id, 1); err != nil {
		t.Fatal(err)
	}
	want, err := s.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	// More writes after the flip land on the destination's log.
	drive(t, s, id, want.Graph, rng, 8)
	want, _ = s.Snapshot(id)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.WaitRecovered()
	if r.shardFor(id) != r.shards[1] {
		t.Fatal("recovered route does not point at the migrated-to shard")
	}
	if got := ownerCount(r, id); got != 1 {
		t.Fatalf("graph recovered on %d shards, want 1", got)
	}
	snap, err := r.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != want.Version {
		t.Fatalf("recovered version %d, want %d", snap.Version, want.Version)
	}
	if !sameEdges(edgeSet(snap.Graph), edgeSet(want.Graph)) {
		t.Fatal("recovered graph differs from pre-close state")
	}
	if err := r.CheckSynced(id); err != nil {
		t.Fatal(err)
	}
	// Dropping the graph retires its route durably.
	if err := r.DropGraph(id); err != nil {
		t.Fatal(err)
	}
	if r.RoutedGraphs() != 0 {
		t.Fatalf("RoutedGraphs = %d after drop, want 0", r.RoutedGraphs())
	}
}

// TestMigrationSoak is the -race soak: one synchronous writer per graph,
// reader goroutines holding query handles across flips, and a migrator
// forcing rotations of every graph between shards. Exactness: each writer
// counts its acknowledged updates, and since version = applied updates, the
// final snapshot version must equal that count exactly — an update lost in
// a handoff or replayed twice shows up as a version mismatch. Every
// post-flip snapshot is DFS-verified.
func TestMigrationSoak(t *testing.T) {
	const (
		shards  = 3
		nGraphs = 6
		perG    = 250
	)
	s := New(Config{Shards: shards})
	defer s.Close()

	ids := make([]GraphID, nGraphs)
	acked := make([]atomic.Uint64, nGraphs)
	for i := range ids {
		ids[i] = idOnShard(i%shards, shards, fmt.Sprintf("soak%d-", i))
		rng := rand.New(rand.NewSource(int64(100 + i)))
		mustCreate(t, s, ids[i], graph.GnpConnected(48, 4.0/48, rng))
	}

	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	errc := make(chan error, nGraphs+2)

	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + i)))
			snap, _ := s.Snapshot(ids[i])
			g := snap.Graph
			for n := 0; n < perG; n++ {
				var u core.Update
				if e, ok := graph.RandomEdgeNotIn(g, rng); ok && n%2 == 0 {
					u = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
				} else if e, ok := graph.RandomExistingEdge(g, rng); ok {
					u = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
				} else {
					continue
				}
				fut, err := s.Apply(ids[i], u)
				if err != nil {
					errc <- fmt.Errorf("graph %d apply: %w", i, err)
					return
				}
				_, snap, err := fut.Wait()
				if err != nil {
					continue // rejected by the maintainer: not acked
				}
				acked[i].Add(1)
				g = snap.Graph
			}
		}(i)
	}
	go func() { wg.Wait(); close(writersDone) }()

	// Migrator: rotate every graph round-robin across shards, verifying each
	// post-flip snapshot. At least minRounds rounds run even if the writers
	// drain quickly, so flips always overlap the reader goroutines.
	const minRounds = 6
	migErr := make(chan error, 1)
	migN := 0
	go func() {
		defer func() { migErr <- nil }()
		for round := 1; ; round++ {
			if round > minRounds {
				select {
				case <-writersDone:
					return
				default:
				}
			}
			for i, id := range ids {
				if err := s.MigrateGraph(id, (i+round)%shards); err != nil {
					migErr <- fmt.Errorf("migrate %q: %w", id, err)
					return
				}
				migN++
				if err := s.Verify(id); err != nil {
					migErr <- fmt.Errorf("post-flip verify %q: %w", id, err)
					return
				}
				if n := ownerCount(s, id); n == 0 || n > 2 {
					// Transiently 2 while the source retires its copy; never
					// 0, never more.
					migErr <- fmt.Errorf("graph %q on %d shards", id, n)
					return
				}
			}
		}
	}()

	// Readers: hold handles across flips and keep querying them.
	readStop := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func(seed int64) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(seed))
			var held []*QueryHandle
			for {
				select {
				case <-readStop:
					return
				default:
				}
				id := ids[rng.Intn(len(ids))]
				h, err := s.Query(id)
				if err != nil {
					errc <- fmt.Errorf("query %q: %w", id, err)
					return
				}
				held = append(held, h)
				if len(held) > 8 {
					held = held[1:]
				}
				for _, hh := range held {
					if _, err := hh.LCA(0, 1); err != nil {
						errc <- fmt.Errorf("held handle LCA: %w", err)
						return
					}
				}
			}
		}(int64(300 + r))
	}

	<-writersDone
	if err := <-migErr; err != nil {
		t.Fatal(err)
	}
	close(readStop)
	readWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if migN == 0 {
		t.Fatal("soak exercised no migrations")
	}

	// Exactness: version == acked updates, maintainer state internally
	// consistent on whichever shard each graph ended up on.
	for i, id := range ids {
		snap, err := s.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version != acked[i].Load() {
			t.Fatalf("graph %q: version %d, acked %d — lost or duplicated updates",
				id, snap.Version, acked[i].Load())
		}
		if err := s.Verify(id); err != nil {
			t.Fatalf("final verify %q: %v", id, err)
		}
		if err := s.CheckSynced(id); err != nil {
			t.Fatalf("final CheckSynced %q: %v", id, err)
		}
		if got := ownerCount(s, id); got != 1 {
			t.Fatalf("graph %q on %d shards at rest, want 1", id, got)
		}
	}
	if got := s.Metrics().Migrations; got != uint64(migN) {
		t.Fatalf("migrations counter %d, want %d", got, migN)
	}
}

// mustSnap returns id's current snapshot or fails the test.
func (s *Service) mustSnap(t *testing.T, id GraphID) *Snapshot {
	t.Helper()
	snap, err := s.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRoutingLookupNoAllocs pins the routing read path at zero allocations
// per lookup — with the table empty (pure hash) and populated (table hit
// and default fallthrough) — since shardFor sits on every read and submit.
func TestRoutingLookupNoAllocs(t *testing.T) {
	s := New(Config{Shards: 4})
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	id := idOnShard(0, 4, "alloc")
	mustCreate(t, s, id, graph.GnpConnected(16, 4.0/16, rng))

	var sink *shard
	if n := testing.AllocsPerRun(1000, func() { sink = s.shardFor(id) }); n != 0 {
		t.Fatalf("shardFor allocates %v/op with empty table", n)
	}
	if err := s.MigrateGraph(id, 3); err != nil {
		t.Fatal(err)
	}
	other := GraphID("unrouted-tenant")
	if n := testing.AllocsPerRun(1000, func() { sink = s.shardFor(id) }); n != 0 {
		t.Fatalf("shardFor allocates %v/op on a table hit", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sink = s.shardFor(other) }); n != 0 {
		t.Fatalf("shardFor allocates %v/op on default fallthrough", n)
	}
	_ = sink
}
