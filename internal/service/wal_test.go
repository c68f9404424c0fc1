package service

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wal"
)

// edgeSet flattens a snapshot's graph into a canonical (u<v) edge set.
func edgeSet(g *graph.Persistent) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, e := range g.Edges() {
		out[[2]int{e.U, e.V}] = true
	}
	return out
}

func sameEdges(a, b map[[2]int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}

// randUpdate proposes one update against the mirror maintainer's current
// graph; the same proposal is applied to both the service and the mirror.
func randUpdate(mir *core.DynamicDFS, rng *rand.Rand) core.Update {
	g := mir.Frozen()
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		if e, ok := graph.RandomEdgeNotIn(g, rng); ok {
			return core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
		}
	case 4, 5, 6:
		if e, ok := graph.RandomExistingEdge(g, rng); ok {
			return core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
		}
	case 7:
		var alive []int
		for v := 0; v < g.NumVertexSlots(); v++ {
			if g.IsVertex(v) {
				alive = append(alive, v)
			}
		}
		if len(alive) > 4 {
			return core.Update{Kind: core.DeleteVertex, U: alive[rng.Intn(len(alive))]}
		}
	default:
		var nbrs []int
		for v := 0; v < g.NumVertexSlots() && len(nbrs) < 3; v++ {
			if g.IsVertex(v) && rng.Intn(2) == 0 {
				nbrs = append(nbrs, v)
			}
		}
		if len(nbrs) > 0 {
			return core.Update{Kind: core.InsertVertex, Neighbors: nbrs}
		}
	}
	return core.Update{Kind: core.InsertEdge, U: 0, V: 1 + rng.Intn(3)}
}

// verifyRecovered cross-checks one recovered graph against its mirror:
// version, edge set, DFS validity, and the maintainer-side sync oracle.
func verifyRecovered(t *testing.T, s *Service, id GraphID, mir *core.DynamicDFS, acked uint64) {
	t.Helper()
	snap, err := s.Snapshot(id)
	if err != nil {
		t.Fatalf("graph %q not recovered: %v", id, err)
	}
	if snap.Version != acked {
		t.Fatalf("graph %q recovered at version %d, want %d", id, snap.Version, acked)
	}
	if !sameEdges(edgeSet(snap.Graph), edgeSet(mir.Frozen())) {
		t.Fatalf("graph %q edge set diverged from durably-acked state", id)
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("graph %q recovered tree invalid: %v", id, err)
	}
	if err := s.CheckSynced(id); err != nil {
		t.Fatalf("graph %q recovered D out of sync: %v", id, err)
	}
}

func TestWALDurableRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Shards: 3, WAL: &WALConfig{Dir: dir}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const graphs = 5
	mirrors := map[GraphID]*core.DynamicDFS{}
	acked := map[GraphID]uint64{}
	for i := 0; i < graphs; i++ {
		id := GraphID(fmt.Sprintf("g%d", i))
		g := graph.GnpConnected(40+i*7, 3.5/40, rng)
		mustCreate(t, s, id, g)
		mirrors[id] = core.New(g, core.Options{RebuildD: true, Headroom: 64})
	}
	for step := 0; step < 200; step++ {
		id := GraphID(fmt.Sprintf("g%d", rng.Intn(graphs)))
		mir := mirrors[id]
		u := randUpdate(mir, rng)
		fut, err := s.Apply(id, u)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			continue // rejected: not logged, not mirrored
		}
		if _, err := mir.Apply(u); err != nil {
			t.Fatalf("mirror rejected an update the service accepted: %v", err)
		}
		acked[id]++
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer r.Close()
	r.WaitRecovered()
	if r.Recovering() {
		t.Fatal("still recovering after WaitRecovered")
	}
	for id, mir := range mirrors {
		verifyRecovered(t, r, id, mir, acked[id])
	}
	m := r.Metrics()
	if !m.WALEnabled || m.WALReplayed+m.WALSkipped == 0 {
		t.Fatalf("recovery metrics look dead: %+v", m.WALReplayed)
	}
	// The recovered service keeps accepting updates.
	id := GraphID("g0")
	u := randUpdate(mirrors[id], rng)
	fut, err := r.Apply(id, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, snap, err := fut.Wait(); err == nil && snap.Version != acked[id]+1 {
		t.Fatalf("post-recovery version %d, want %d", snap.Version, acked[id]+1)
	}
}

func TestWALCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	cfg := Config{Shards: 1, WAL: &WALConfig{Dir: dir, CheckpointEvery: 8}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(30, 4.0/30, rng)
	mustCreate(t, s, "g", g)
	mir := core.New(g, core.Options{RebuildD: true, Headroom: 64})
	var acked uint64
	for step := 0; step < 60; step++ {
		u := randUpdate(mir, rng)
		fut, err := s.Apply("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			continue
		}
		mir.Apply(u)
		acked++
	}
	m := s.Metrics()
	if m.WALCheckpoints < 3 {
		t.Fatalf("only %d checkpoints after 60 updates at CheckpointEvery=8", m.WALCheckpoints)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Rotation bounds the replay tail to under one checkpoint interval.
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.WaitRecovered()
	if got := r.Metrics().WALReplayed; got >= 8 {
		t.Fatalf("replayed %d records, rotation should bound it below 8", got)
	}
	verifyRecovered(t, r, "g", mir, acked)
}

func TestWALDegradedReads(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	cfg := Config{Shards: 1, WAL: &WALConfig{Dir: dir, CheckpointEvery: 1 << 20}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(30, 4.0/30, rng)
	mustCreate(t, s, "g", g)
	mir := core.New(g, core.Options{RebuildD: true, Headroom: 64})
	var acked uint64
	for step := 0; step < 30; step++ {
		u := randUpdate(mir, rng)
		fut, _ := s.Apply("g", u)
		if _, _, err := fut.Wait(); err != nil {
			continue
		}
		mir.Apply(u)
		acked++
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with recovery held: the service must serve the checkpointed
	// snapshot (version 0 — only the create wrote a checkpoint) while the
	// log tail waits to replay, and queue writes behind the prologue.
	hold := make(chan struct{})
	cfg2 := cfg
	cfg2.WAL = &WALConfig{Dir: dir, holdRecovery: hold}
	r, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Recovering() {
		t.Fatal("not in degraded mode while recovery is held")
	}
	snap, err := r.Snapshot("g")
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	if snap.Version != 0 {
		t.Fatalf("degraded snapshot at version %d, want checkpointed 0", snap.Version)
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("degraded snapshot invalid: %v", err)
	}
	u := randUpdate(mir, rng)
	fut, err := r.Apply("g", u)
	if err != nil {
		t.Fatalf("write submission during recovery: %v", err)
	}
	select {
	case <-fut.Done():
		t.Fatal("write resolved while recovery was held")
	case <-time.After(30 * time.Millisecond):
	}
	close(hold)
	r.WaitRecovered()
	if r.Recovering() {
		t.Fatal("recovering after flip")
	}
	if _, _, err := fut.Wait(); err == nil {
		mir.Apply(u)
		acked++
	}
	verifyRecovered(t, r, "g", mir, acked)
	if got := r.Metrics().WALReplayed; got == 0 {
		t.Fatal("no records replayed despite unrotated log tail")
	}
}

// TestWALCrashInjection is the crash matrix: fail the Nth WAL/checkpoint
// I/O in each mode, then recover from the surviving directory and require
// the recovered state to be exactly the durably-acknowledged prefix.
func TestWALCrashInjection(t *testing.T) {
	modes := []struct {
		name string
		mode wal.InjectMode
	}{
		{"failwrite", wal.InjectFailWrite},
		{"shortwrite", wal.InjectShortWrite},
		{"failsync", wal.InjectFailSync},
	}
	for _, mc := range modes {
		for _, failAt := range []int{1, 2, 3, 5, 9, 17, 33} {
			t.Run(fmt.Sprintf("%s/op%d", mc.name, failAt), func(t *testing.T) {
				dir := t.TempDir()
				rng := rand.New(rand.NewSource(int64(failAt)))
				inj := &wal.Injector{FailAt: failAt, Mode: mc.mode}
				s, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: dir, CheckpointEvery: 16, Injector: inj}})
				if err != nil {
					t.Fatal(err)
				}
				g := graph.GnpConnected(24, 4.0/24, rng)
				created := false
				if _, err := s.CreateGraph("g", g); err == nil {
					created = true
				}
				mir := core.New(g, core.Options{RebuildD: true, Headroom: 64})
				var acked uint64
				var inFlight *core.Update // the update whose ack the failure ate
				if created {
					for step := 0; step < 80; step++ {
						u := randUpdate(mir, rng)
						fut, err := s.Apply("g", u)
						if err != nil {
							break
						}
						_, _, err = fut.Wait()
						if err != nil {
							if errors.Is(err, wal.ErrInjected) || errors.Is(err, wal.ErrLogFailed) {
								// Fail-stopped: nothing later can be acked. The
								// failing update itself may or may not have
								// reached the file (a failed fsync loses only
								// the durability confirmation, not the bytes).
								inFlight = &u
								break
							}
							continue // ordinary rejection: not logged
						}
						mir.Apply(u)
						acked++
					}
					// Reads survive the failure; writes stay rejected.
					if inj.Tripped() {
						if _, err := s.Snapshot("g"); err != nil {
							t.Fatalf("reads died after fail-stop: %v", err)
						}
						if fut, err := s.Apply("g", core.Update{Kind: core.InsertEdge, U: 0, V: 1}); err == nil {
							if _, _, err := fut.Wait(); err == nil {
								t.Fatal("write accepted after fail-stop")
							}
						}
					}
				}
				s.Close()

				// Recover on pristine media.
				r, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: dir}})
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer r.Close()
				r.WaitRecovered()
				if !created {
					if _, err := r.Snapshot("g"); !errors.Is(err, ErrUnknownGraph) {
						t.Fatalf("unacknowledged graph resurrected: %v", err)
					}
					return
				}
				// Every acked update must survive; the one in-flight update
				// may additionally survive if its bytes reached the file
				// before the injected failure (fsync failures lose the
				// confirmation, not the write). Anything else is corruption.
				snap, err := r.Snapshot("g")
				if err != nil {
					t.Fatal(err)
				}
				want := acked
				if snap.Version == acked+1 && inFlight != nil {
					if _, err := mir.Apply(*inFlight); err != nil {
						t.Fatalf("mirror rejected the in-flight update: %v", err)
					}
					want = acked + 1
				}
				verifyRecovered(t, r, "g", mir, want)
				// And the recovered service is writable again.
				fut, err := r.Apply("g", randUpdate(mir, rng))
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := fut.Wait(); err != nil && !errors.Is(err, nil) {
					// rejection is fine; a WAL error is not
					if errors.Is(err, wal.ErrLogFailed) {
						t.Fatalf("recovered service still fail-stopped: %v", err)
					}
				}
			})
		}
	}
}

func TestWALDropCreateIncarnation(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	cfg := Config{Shards: 2, WAL: &WALConfig{Dir: dir}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g1 := graph.GnpConnected(20, 4.0/20, rng)
	mustCreate(t, s, "g", g1)
	for i := 0; i < 10; i++ {
		if e, ok := graph.RandomEdgeNotIn(g1, rng); ok {
			fut, _ := s.Apply("g", core.Update{Kind: core.InsertEdge, U: e.U, V: e.V})
			fut.Wait()
		}
	}
	if err := s.DropGraph("g"); err != nil {
		t.Fatal(err)
	}
	// Second incarnation under the same ID, different shape.
	g2 := graph.GnpConnected(33, 3.0/33, rng)
	mustCreate(t, s, "g", g2)
	mir := core.New(g2, core.Options{RebuildD: true, Headroom: 64})
	var acked uint64
	for i := 0; i < 7; i++ {
		u := randUpdate(mir, rng)
		fut, _ := s.Apply("g", u)
		if _, _, err := fut.Wait(); err == nil {
			mir.Apply(u)
			acked++
		}
	}
	s.Close()

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.WaitRecovered()
	verifyRecovered(t, r, "g", mir, acked)
	if got := r.Metrics().WALOrphanRecords; got != 0 {
		t.Fatalf("%d orphan records; drop rotation should have removed them", got)
	}
}

func TestWALShardCountChange(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(19))
	s, err := Open(Config{Shards: 4, WAL: &WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	const graphs = 6
	mirrors := map[GraphID]*core.DynamicDFS{}
	acked := map[GraphID]uint64{}
	for i := 0; i < graphs; i++ {
		id := GraphID(fmt.Sprintf("sc%d", i))
		g := graph.GnpConnected(20, 4.0/20, rng)
		mustCreate(t, s, id, g)
		mirrors[id] = core.New(g, core.Options{RebuildD: true, Headroom: 64})
	}
	for step := 0; step < 120; step++ {
		id := GraphID(fmt.Sprintf("sc%d", rng.Intn(graphs)))
		u := randUpdate(mirrors[id], rng)
		fut, _ := s.Apply(id, u)
		if _, _, err := fut.Wait(); err == nil {
			mirrors[id].Apply(u)
			acked[id]++
		}
	}
	s.Close()

	// Halve the shard count: records from shard-0002/0003 must be routed
	// to the new owners, and the stale log files removed after recovery.
	r, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.WaitRecovered()
	for id, mir := range mirrors {
		verifyRecovered(t, r, id, mir, acked[id])
	}
	for _, stale := range []string{"shard-0002.wal", "shard-0003.wal"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Fatalf("stale log %s not cleaned after recovery", stale)
		}
	}
}

func TestWALTornTailAndOrphans(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))
	cfg := Config{Shards: 1, WAL: &WALConfig{Dir: dir, CheckpointEvery: 1 << 20}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(20, 4.0/20, rng)
	mustCreate(t, s, "g", g)
	mir := core.New(g, core.Options{RebuildD: true, Headroom: 64})
	var acked uint64
	for i := 0; i < 12; i++ {
		u := randUpdate(mir, rng)
		fut, _ := s.Apply("g", u)
		if _, _, err := fut.Wait(); err == nil {
			mir.Apply(u)
			acked++
		}
	}
	s.Close()

	// Tear the log tail (simulate a crash mid-append) and drop in a bogus
	// old-epoch log holding records for a graph with no checkpoint.
	logPath := filepath.Join(dir, "shard-0000.wal")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := wal.AppendEncode(nil, &wal.Record{Graph: "dropped", Seq: 1,
		Update: core.Update{Kind: core.InsertEdge, U: 0, V: 1}})
	if err := os.WriteFile(filepath.Join(dir, "shard-0099.wal"), orphan, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.WaitRecovered()
	m := r.Metrics()
	if m.WALTornTails != 1 {
		t.Fatalf("WALTornTails = %d, want 1", m.WALTornTails)
	}
	if m.WALOrphanRecords != 1 {
		t.Fatalf("WALOrphanRecords = %d, want 1", m.WALOrphanRecords)
	}
	// The torn record was the last acked one's tail? No: tearing 3 bytes
	// clips exactly the final record, which was acked. The service must
	// recover the longest intact prefix — acked-1 — and stay consistent.
	snap, err := r.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != acked-1 {
		t.Fatalf("recovered version %d from torn log, want %d", snap.Version, acked-1)
	}
	if err := r.CheckSynced("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot("dropped"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("orphan records resurrected a graph: %v", err)
	}
}

// shardIndex is Service.defaultShard's hash routing for test planning —
// the same routeHash the serving path uses, so the two can never drift.
func shardIndex(id GraphID, shards int) int {
	return int(routeHash(id) % uint32(shards))
}

// reshardIDs returns two graph IDs that land on shard 0 and shard 1 under
// a 2-shard mapping (so that under 1 shard both log to shard-0000.wal and
// a reopen at 2 shards reroutes exactly one of them).
func reshardIDs() (keep, moved GraphID) {
	for i := 0; keep == "" || moved == ""; i++ {
		id := GraphID(fmt.Sprintf("rs%d", i))
		if shardIndex(id, 2) == 0 {
			if keep == "" {
				keep = id
			}
		} else if moved == "" {
			moved = id
		}
	}
	return keep, moved
}

// copyWALDir snapshots a WAL directory's files — the entire durable state —
// into dst, simulating the disk image a crash at this instant would leave.
func copyWALDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// replayMirror rebuilds the expected maintainer state: g with updates
// applied in order.
func replayMirror(t *testing.T, g *graph.Persistent, updates []core.Update) *core.DynamicDFS {
	t.Helper()
	mir := core.New(g, core.Options{RebuildD: true, Headroom: 64})
	for i, u := range updates {
		if _, err := mir.Apply(u); err != nil {
			t.Fatalf("mirror replay of update %d: %v", i, err)
		}
	}
	return mir
}

// TestWALReshardKeepsInheritedTail: when the shard count changes, a
// shard's inherited log file can hold the only durable copy of records for
// graphs rerouted to other shards. Recovery must not truncate it until
// every shard has re-checkpointed (the barrier) — a crash in between would
// otherwise roll the rerouted graphs back behind their acked tails.
func TestWALReshardKeepsInheritedTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(31))
	keep, moved := reshardIDs()
	gK := graph.GnpConnected(24, 4.0/24, rng)
	gM := graph.GnpConnected(26, 4.0/26, rng)
	mirrors := map[GraphID]*core.DynamicDFS{
		keep:  core.New(gK, core.Options{RebuildD: true, Headroom: 64}),
		moved: core.New(gM, core.Options{RebuildD: true, Headroom: 64}),
	}
	acked := map[GraphID]uint64{}
	s, err := Open(Config{Shards: 1, WAL: &WALConfig{Dir: dir, CheckpointEvery: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, keep, gK)
	mustCreate(t, s, moved, gM)
	for _, id := range []GraphID{keep, moved} {
		for i := 0; i < 8; i++ {
			u := randUpdate(mirrors[id], rng)
			fut, _ := s.Apply(id, u)
			if _, _, err := fut.Wait(); err == nil {
				mirrors[id].Apply(u)
				acked[id]++
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with two shards: shard 0 inherits shard-0000.wal, which holds
	// moved's unrotated tail even though moved now lives on shard 1. The
	// inherited file must survive the whole recovery untruncated.
	r, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: dir, CheckpointEvery: 8}})
	if err != nil {
		t.Fatal(err)
	}
	r.WaitRecovered()
	res, err := wal.ReadLogFile(filepath.Join(dir, "shard-0000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range res.Records {
		if rec.Graph == string(moved) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("inherited log truncated during recovery while it held a rerouted graph's tail")
	}
	for id, mir := range mirrors {
		verifyRecovered(t, r, id, mir, acked[id])
	}

	// A crash at any point of that recovery must keep every acked update:
	// recover a copy of the directory's current disk image and cross-check.
	crash := t.TempDir()
	copyWALDir(t, dir, crash)
	c, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: crash}})
	if err != nil {
		t.Fatal(err)
	}
	c.WaitRecovered()
	for id, mir := range mirrors {
		verifyRecovered(t, c, id, mir, acked[id])
	}
	c.Close()

	// After the barrier the hold is released: the next checkpoint rotation
	// truncates the inherited file, so old-epoch records don't accumulate.
	for i := 0; i < 16; i++ {
		u := randUpdate(mirrors[keep], rng)
		fut, _ := r.Apply(keep, u)
		if _, _, err := fut.Wait(); err == nil {
			mirrors[keep].Apply(u)
			acked[keep]++
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = wal.ReadLogFile(filepath.Join(dir, "shard-0000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Graph == string(moved) {
			t.Fatal("old-epoch rerouted records survived a post-barrier rotation")
		}
	}
}

// TestWALReshardTornTailAppend: an inherited log kept past recovery (see
// above) is also appended to. If its torn tail were not dropped first,
// O_APPEND would place the new acked records behind an undecodable frame
// and the next recovery's prefix scan would silently lose them.
func TestWALReshardTornTailAppend(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(37))
	keep, moved := reshardIDs()
	gK := graph.GnpConnected(24, 4.0/24, rng)
	gM := graph.GnpConnected(26, 4.0/26, rng)
	mirrors := map[GraphID]*core.DynamicDFS{
		keep:  core.New(gK, core.Options{RebuildD: true, Headroom: 64}),
		moved: core.New(gM, core.Options{RebuildD: true, Headroom: 64}),
	}
	applied := map[GraphID][]core.Update{}
	s, err := Open(Config{Shards: 1, WAL: &WALConfig{Dir: dir, CheckpointEvery: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, keep, gK)
	mustCreate(t, s, moved, gM)
	// keep first, moved last: the log's final record belongs to moved.
	for _, id := range []GraphID{keep, moved} {
		for i := 0; i < 6; i++ {
			u := randUpdate(mirrors[id], rng)
			fut, _ := s.Apply(id, u)
			if _, _, err := fut.Wait(); err == nil {
				mirrors[id].Apply(u)
				applied[id] = append(applied[id], u)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record (crash mid-append): moved's last update rolls
	// back to the intact prefix, like TestWALTornTailAndOrphans.
	logPath := filepath.Join(dir, "shard-0000.wal")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	applied[moved] = applied[moved][:len(applied[moved])-1]

	r, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: dir, CheckpointEvery: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.WaitRecovered()
	// Shard 0 keeps the inherited file (it holds moved's tail) and appends
	// keep's new records to it.
	for i := 0; i < 5; i++ {
		u := randUpdate(mirrors[keep], rng)
		fut, _ := r.Apply(keep, u)
		if _, _, err := fut.Wait(); err == nil {
			mirrors[keep].Apply(u)
			applied[keep] = append(applied[keep], u)
		}
	}

	// Crash now and recover the disk image: the pre-tear records, the torn
	// rollback, and the post-recovery appends must all be visible.
	crash := t.TempDir()
	copyWALDir(t, dir, crash)
	c, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: crash}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WaitRecovered()
	verifyRecovered(t, c, keep, replayMirror(t, gK, applied[keep]), uint64(len(applied[keep])))
	verifyRecovered(t, c, moved, replayMirror(t, gM, applied[moved]), uint64(len(applied[moved])))
}

// TestWALDirSingleOwner: a WAL directory admits one live service at a time;
// the lock is released by Close so a successor can take over.
func TestWALDirSingleOwner(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, WAL: &WALConfig{Dir: dir}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("second Open on a held WAL dir = %v, want wal.ErrLocked", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	r.WaitRecovered()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWALErrors(t *testing.T) {
	if _, err := Open(Config{Shards: 1, WAL: &WALConfig{}}); err == nil {
		t.Fatal("Open accepted a WALConfig without Dir")
	}
	// A graph whose only checkpoint is corrupt must fail Open loudly.
	dir := t.TempDir()
	cfg := Config{Shards: 1, WAL: &WALConfig{Dir: dir}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, "g", graph.GnpConnected(10, 0.3, rand.New(rand.NewSource(1))))
	s.Close()
	names, _ := os.ReadDir(dir)
	for _, e := range names {
		if filepath.Ext(e.Name()) == ".ckpt" {
			p := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(p)
			data[len(data)-1] ^= 0xff
			os.WriteFile(p, data, 0o644)
		}
	}
	if _, err := Open(cfg); err == nil || !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open on corrupt checkpoint = %v, want ErrCorrupt", err)
	}
}

func TestWALGroupCommitBatch(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(29))
	s, err := Open(Config{Shards: 1, WAL: &WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := graph.GnpConnected(40, 3.0/40, rng)
	mustCreate(t, s, "g", g)
	before := s.Metrics()

	var items []BatchItem
	seen := map[[2]int]bool{}
	for len(items) < 16 {
		e, ok := graph.RandomEdgeNotIn(g, rng)
		if !ok || seen[[2]int{e.U, e.V}] || seen[[2]int{e.V, e.U}] {
			continue
		}
		seen[[2]int{e.U, e.V}] = true
		items = append(items, BatchItem{Graph: "g", Update: core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}})
	}
	futs, err := s.ApplyBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for _, f := range futs {
		if _, _, err := f.Wait(); err == nil {
			okCount++
		}
	}
	after := s.Metrics()
	appends := after.WALAppends - before.WALAppends
	syncs := after.WALSyncs - before.WALSyncs
	if appends != uint64(okCount) {
		t.Fatalf("%d appends for %d applied entries", appends, okCount)
	}
	// Group commit: the whole round rides one fsync.
	if syncs != 1 {
		t.Fatalf("batch round issued %d fsyncs, want 1", syncs)
	}
}
