package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// migPackage is one graph's frozen state in transit between shards: the
// graph's checkpoint value, the same one migFreeze writes. It is built
// from the maintainer (not the published snapshot: a rejected update's
// error recovery can renumber the tree without publishing, so the snapshot
// may lag the maintainer), and everything in it is immutable or handed over
// wholesale — the persistent graph and tree are shared zero-copy, the meter
// pointer moves so the tenant's cumulative attribution survives the hop.
type migPackage struct {
	ck      *wal.Checkpoint // ck.Seq is the handoff version
	meter   *obs.TenantMeter
	hotCost uint64 // source sketch's apply-cost estimate, seeds the destination's
	frozeAt time.Time
}

// MigrateGraph moves id's graph live from its current shard to shard dst,
// preserving exactness: no acknowledged update is lost or applied twice, and
// reads keep being served throughout (the source copy answers until the
// routing entry flips, the destination's installed copy after). The protocol:
//
//  1. Freeze on the source loop: take the graph's checkpoint value at its
//     current sequence and write it (mandatory — after the handoff the
//     source's log rotation no longer re-checkpoints this graph, so the
//     checkpoint is what keeps its logged tail coverable), mark it
//     migrating so subsequent tasks park in its deferred queue, and hand
//     the checkpoint value over as the package.
//  2. Install on the destination loop: restore the maintainer from the
//     package's checkpoint, as recovery does, and publish its snapshot.
//     The copy stays invisible — routing still points at the source.
//  3. Commit: append the RouteRecord to the durable route log (fsync) and
//     flip the copy-on-write routing table. This is the commit point; a
//     crash before it recovers the graph on the source, after it on the
//     destination, never both (recovery consults the logged route).
//  4. Complete on the source loop: retire the source copy and collect the
//     parked tasks, which are then replayed to the destination in order.
//     Cached query indexes follow the graph.
//
// Writers see the handoff as added latency, not errors: the write pause per
// migration (freeze to flip) is recorded in Metrics' MigrationPauseHist.
// Migrations are serialized — at most one graph is in transit at a time.
// Migrating to the shard the graph already lives on is a no-op.
func (s *Service) MigrateGraph(id GraphID, dst int) error {
	if dst < 0 || dst >= len(s.shards) {
		return fmt.Errorf("service: migrate %q: shard %d out of range [0,%d)", id, dst, len(s.shards))
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	src := s.shardFor(id)
	dsh := s.shards[dst]
	if src == dsh {
		return nil
	}

	var pkg migPackage
	if err := s.runOn(src, func() error { return src.migFreeze(id, &pkg) }); err != nil {
		s.migFailures.Add(1)
		return fmt.Errorf("service: migrate %q: freeze: %w", id, err)
	}
	if err := s.runOn(dsh, func() error { return dsh.migInstall(id, &pkg) }); err != nil {
		s.abortMigration(src, id)
		s.migFailures.Add(1)
		return fmt.Errorf("service: migrate %q: install: %w", id, err)
	}
	if err := s.commitRoute(id, dsh, pkg.ck.Seq); err != nil {
		// The flip never became durable: tear the invisible destination copy
		// back down and resume serving from the source, exactly as if the
		// migration had not been attempted.
		s.runOn(dsh, func() error { dsh.removeGraph(id); return nil })
		s.abortMigration(src, id)
		s.migFailures.Add(1)
		return fmt.Errorf("service: migrate %q: commit: %w", id, err)
	}
	pause := time.Since(pkg.frozeAt)

	var deferred []task
	if err := s.runOn(src, func() error { deferred = src.migComplete(id); return nil }); err != nil {
		// Source loop already gone (service closing). The route is flipped
		// and durable; any tasks the source parked resolve ErrClosed in its
		// run() cleanup.
		deferred = nil
	}
	for _, dt := range deferred {
		if err := dsh.submit(dt); err != nil {
			dt.fut.resolve(-1, nil, err)
		}
	}

	s.migrations.Add(1)
	src.migrationsOut.Add(1)
	dsh.migrationsIn.Add(1)
	s.migPauseHist.Record(pause)
	return nil
}

// runOn runs fn on sh's update loop and waits for it. The returned error is
// fn's, or the submission failure when the shard is closed.
func (s *Service) runOn(sh *shard, fn func() error) error {
	var ferr error
	fut := newFuture()
	if err := sh.submit(task{kind: taskFunc, fn: func() { ferr = fn() }, fut: fut}); err != nil {
		return err
	}
	fut.Wait()
	return ferr
}

// abortMigration unfreezes id on src and replays its parked tasks locally,
// restoring the pre-migration world. Best-effort: if the shard is closing,
// run()'s cleanup resolves the parked futures instead.
func (s *Service) abortMigration(src *shard, id GraphID) {
	s.runOn(src, func() error { src.migAbort(id); return nil })
}

// migFreeze is migration step 1, on the source shard's loop: checkpoint the
// graph at its current sequence, freeze it (tasks park in deferred from here
// on), and hand the checkpoint value over as the package.
func (sh *shard) migFreeze(id GraphID, pkg *migPackage) error {
	pkg.frozeAt = time.Now()
	gs := sh.lookup(id)
	if gs == nil {
		return ErrUnknownGraph
	}
	if gs.migrating {
		return errors.New("already migrating")
	}
	if err := sh.walGate(); err != nil {
		return err
	}
	pkg.ck = checkpointOf(id, gs.dd)
	if sh.w != nil {
		// The checkpoint at the handoff sequence is what makes the transfer
		// durable: the source's future rotations re-checkpoint only its own
		// graphs before truncating its log, so without this checkpoint the
		// departed graph's only durable tail could be truncated away.
		if err := sh.writeCheckpoint(pkg.ck); err != nil {
			return err
		}
	}
	gs.migrating = true
	pkg.meter = gs.meter
	for _, it := range sh.hot.Snapshot() {
		if it.Key == string(id) {
			pkg.hotCost = it.Count
			break
		}
	}
	return nil
}

// migInstall is migration step 2, on the destination shard's loop: restore
// the maintainer from the package, publish its snapshot, and register the
// graph. Invisible until the routing entry flips — normal submissions still
// route to the source.
func (sh *shard) migInstall(id GraphID, pkg *migPackage) error {
	if sh.lookup(id) != nil {
		return ErrGraphExists
	}
	if err := sh.walGate(); err != nil {
		return err
	}
	sh.addGraph(id, &graphState{meter: pkg.meter, dd: sh.restore(pkg.ck)})
	if pkg.hotCost > 0 {
		// Seed the hottest-graphs sketch with the source's estimate so the
		// graph's heat survives the hop instead of restarting from zero.
		sh.hot.Observe(string(id), pkg.hotCost)
	}
	return nil
}

// migComplete is migration step 4, on the source shard's loop after the
// route flipped: retire the source copy and hand the parked tasks back to
// the coordinator for replay on the destination. Tasks still behind this one
// in the mailbox find no graph and forward themselves via the routing table.
func (sh *shard) migComplete(id GraphID) []task {
	if gs := sh.removeGraph(id); gs != nil {
		return gs.unfreeze()
	}
	return nil
}

// migAbort unfreezes id after a failed migration and replays its parked
// tasks locally, in order, through the normal handler.
func (sh *shard) migAbort(id GraphID) {
	gs := sh.lookup(id)
	if gs == nil || !gs.migrating {
		return
	}
	for _, dt := range gs.unfreeze() {
		sh.handle(dt)
	}
}
