package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// errWALDir rejects a WALConfig without a directory.
var errWALDir = errors.New("service: WALConfig.Dir is required")

// WALConfig enables durability: every applied update is appended to its
// shard's write-ahead log and fsynced per Policy before the update's Future
// resolves, periodic checkpoints bound replay work, and Open recovers the
// directory's state after a crash. See the package documentation's
// Durability section for the full semantics.
type WALConfig struct {
	// Dir is the durability directory: per-shard logs (shard-NNNN.wal) and
	// per-graph checkpoints (ck-<hexid>-<seq>.ckpt). Required.
	Dir string
	// Policy selects when acknowledged updates are fsynced. The default,
	// wal.SyncBatch, issues one fsync per mailbox round (group commit).
	Policy wal.SyncPolicy
	// SyncInterval is the wal.SyncInterval period. Default 100ms.
	SyncInterval time.Duration
	// CheckpointEvery is the number of logged updates a shard accumulates
	// before it checkpoints its graphs and truncates its log. Default 4096.
	CheckpointEvery int
	// Injector, when non-nil, routes all WAL and checkpoint I/O through a
	// crash-injection hook (testing only).
	Injector *wal.Injector

	// holdRecovery, when non-nil, blocks every shard's recovery prologue
	// until the channel is closed — a test hook that holds the service in
	// degraded-reads mode deterministically.
	holdRecovery <-chan struct{}
}

func (c WALConfig) withDefaults() WALConfig {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 4096
	}
	return c
}

// shardWAL is one shard's durability state. The plain fields are touched
// only by Open (before the shard goroutine starts) and the shard goroutine;
// the atomics are sampled by Metrics and the read path.
type shardWAL struct {
	cfg      WALConfig
	log      *wal.Log
	since    int  // updates logged since the last checkpoint rotation
	hadInput bool // the directory held state for this shard at Open

	// holdReset defers log truncation: the inherited log file holds records
	// for graphs rerouted to other shards (the shard count changed), whose
	// checkpoints this shard does not write. Truncating before every shard
	// has re-checkpointed would lose those tails in a crash, so Reset waits
	// for the recovery barrier; barrier reports it passed cleanly.
	holdReset bool
	barrier   func() bool

	// Recovery backlog, prepared by Open and consumed by the shard
	// goroutine's prologue: per-graph Seq-sorted log records past each
	// graph's checkpoint, and the graph order to replay them in.
	backlog   map[GraphID][]wal.Record
	order     []GraphID
	done      func(ok bool) // recovery-completion callback into the Service
	graphDone func()        // per-graph recovery-progress callback (may be nil in tests)

	// recovering is true from Open until the prologue flips the shard from
	// degraded checkpoint snapshots to live replayed state.
	recovering atomic.Bool
	// broken holds the sticky write-path failure (error). Once set the
	// shard is fail-stopped: reads keep serving, every write is rejected,
	// so the log never acquires a hole after its first failure.
	broken      atomic.Value
	replayed    atomic.Uint64 // records replayed by recovery
	skipped     atomic.Uint64 // records already covered by a checkpoint
	checkpoints atomic.Uint64 // checkpoint files written

	appendHist obs.Histogram // per-record append latency
	syncHist   obs.Histogram // per-fsync latency
	replayHist obs.Histogram // per-record replay latency
}

func (w *shardWAL) err() error {
	if e, _ := w.broken.Load().(error); e != nil {
		return e
	}
	return nil
}

// fail records the first write-path error (later ones keep the original).
func (w *shardWAL) fail(err error) error {
	if w.err() == nil {
		w.broken.Store(err)
	}
	return err
}

// openWAL prepares recovery for every shard: load the newest valid
// checkpoint per graph, scan every log file in the directory (tolerating a
// torn final record), route each graph's surviving records to its current
// shard — the shard count may differ from the crashed run's — and publish
// each graph's checkpoint snapshot so reads are served (degraded) before
// the shard goroutines even start. Called by Open before the goroutines
// spawn, so no locking is needed.
func (s *Service) openWAL() error {
	wc := s.cfg.WAL.withDefaults()
	if wc.Dir == "" {
		return errWALDir
	}
	if err := os.MkdirAll(wc.Dir, 0o755); err != nil {
		return fmt.Errorf("service: wal dir: %w", err)
	}
	// One owner per directory: a second service appending to the same shard
	// logs would interleave sequences and truncate this one's records at
	// rotation. flock dies with the process, so kill -9 cannot wedge us.
	lock, err := wal.LockDir(wc.Dir)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.walLock = lock
	ckpts, err := wal.LoadCheckpoints(wc.Dir)
	if err != nil {
		return fmt.Errorf("service: recovery: %w", err)
	}
	// Install the durable routing table before the scan below routes any
	// graph: a migration that committed (route record fsynced) before the
	// crash must place its graph on the destination shard, and one that did
	// not must fall back to the previous route or the hash default.
	rlog, routeRecs, err := wal.OpenRoutes(wc.Dir)
	if err != nil {
		return fmt.Errorf("service: recovery: %w", err)
	}
	s.routeLog = rlog
	if err := s.loadRoutes(routeRecs, ckpts); err != nil {
		return fmt.Errorf("service: recovery: %w", err)
	}
	for _, sh := range s.shards {
		sh.w = &shardWAL{
			cfg:       wc,
			backlog:   map[GraphID][]wal.Record{},
			done:      s.recoveryDone,
			graphDone: func() { s.recGraphsDone.Add(1) },
			barrier:   s.recoveredClean,
		}
		sh.w.recovering.Store(true)
	}

	// Scan every log file present — including files left by a run with a
	// different shard count — and group the records per graph, remembering
	// per file which graphs it held and where a torn tail began.
	entries, err := os.ReadDir(wc.Dir)
	if err != nil {
		return fmt.Errorf("service: recovery: %w", err)
	}
	type logScan struct {
		graphs map[string]bool
		torn   bool
		tornAt int
	}
	perGraph := map[string][]wal.Record{}
	scans := map[string]*logScan{}
	var logFiles []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		if e.Name() == wal.RoutesFile {
			// The route log is not an update log: it has its own framing and
			// its own lifecycle (loadRoutes compacted it above). Without this
			// skip it would be read as a shard log and — owned by no shard —
			// deleted as stale after recovery.
			continue
		}
		path := filepath.Join(wc.Dir, e.Name())
		res, err := wal.ReadLogFile(path)
		if err != nil {
			return fmt.Errorf("service: recovery: %w", err)
		}
		sc := &logScan{graphs: map[string]bool{}}
		if !res.Clean {
			// A torn tail is the expected shape of a crash mid-append; the
			// CRC-checked prefix before it is intact and replayable. Only
			// unacknowledged updates can live past the tear.
			sc.torn, sc.tornAt = true, res.Torn
			s.walTorn++
		}
		for _, r := range res.Records {
			perGraph[r.Graph] = append(perGraph[r.Graph], r)
			sc.graphs[r.Graph] = true
		}
		scans[path] = sc
		logFiles = append(logFiles, path)
	}

	// A graph exists iff its checkpoint does (creation writes one before
	// acknowledging). Route each checkpointed graph to its current shard
	// with its Seq-sorted record backlog and publish its degraded snapshot.
	ids := make([]string, 0, len(ckpts))
	for id := range ckpts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	now := time.Now()
	for _, id := range ids {
		c := ckpts[id]
		gid := GraphID(id)
		sh := s.shardFor(gid)
		recs := perGraph[id]
		delete(perGraph, id)
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
		gs := &graphState{meter: &obs.TenantMeter{}}
		gs.snap.Store(&Snapshot{
			ID:          gid,
			Version:     c.Seq,
			Graph:       c.Graph,
			Tree:        c.Tree,
			PseudoRoot:  c.Pseudo,
			PublishedAt: now,
		})
		sh.graphs[gid] = gs
		sh.w.backlog[gid] = recs
		sh.w.order = append(sh.w.order, gid)
	}
	s.recGraphsTotal.Store(int64(len(ids)))
	// Records without a checkpoint belong to dropped graphs (a crash can
	// land between checkpoint deletion and log rotation): count and skip.
	for _, recs := range perGraph {
		s.walOrphans += len(recs)
	}

	// Open each shard's own log, appending to the previous run's file when
	// the shard count is unchanged; files owned by no current shard are
	// deleted once every shard has recovered and re-checkpointed.
	own := map[string]bool{}
	for i, sh := range s.shards {
		path := filepath.Join(wc.Dir, fmt.Sprintf("shard-%04d.wal", i))
		own[path] = true
		if st, err := os.Stat(path); err == nil && st.Size() > 0 {
			sh.w.hadInput = true
		}
		if len(sh.w.order) > 0 {
			sh.w.hadInput = true
		}
		if sc := scans[path]; sc != nil {
			if sc.torn {
				// Drop the torn bytes before reopening for append: O_APPEND
				// would otherwise write acknowledged records after an
				// undecodable frame, hiding them from the next recovery's
				// prefix scan. The dropped bytes were never acknowledged.
				if err := os.Truncate(path, int64(sc.tornAt)); err != nil {
					return fmt.Errorf("service: recovery: %w", err)
				}
			}
			// An inherited file can hold the log tail of live graphs now
			// routed to other shards; this shard's own re-checkpoint does
			// not cover them, so its log must survive until the barrier.
			for gid := range sc.graphs {
				if ckpts[gid] != nil && s.shardFor(GraphID(gid)) != sh {
					sh.w.holdReset = true
					break
				}
			}
		}
		lg, err := wal.OpenLog(path, wal.Options{
			Policy:     wc.Policy,
			Interval:   wc.SyncInterval,
			Injector:   wc.Injector,
			AppendHist: &sh.w.appendHist,
			SyncHist:   &sh.w.syncHist,
		})
		if err != nil {
			return err
		}
		sh.w.log = lg
	}
	for _, p := range logFiles {
		if !own[p] {
			s.walStale = append(s.walStale, p)
		}
	}
	s.walOK.Store(true)
	s.walPending.Store(int32(len(s.shards)))
	return nil
}

// recoveryDone is each shard's recovery-completion callback. The last
// shard deletes the stale old-epoch log files — only when every shard
// recovered and re-checkpointed cleanly — and unblocks WaitRecovered.
func (s *Service) recoveryDone(ok bool) {
	if !ok {
		s.walOK.Store(false)
	}
	if s.walPending.Add(-1) == 0 {
		if s.walOK.Load() {
			// Best-effort: a crash here leaves files whose records the next
			// recovery re-reads and skips (all covered by checkpoints).
			for _, p := range s.walStale {
				os.Remove(p)
			}
		}
		close(s.recovered)
	}
}

// recoveredClean reports that the recovery barrier has passed cleanly:
// every shard finished its prologue and re-checkpointed. Only after this
// point does an inherited log file hold no unique state, making it safe to
// truncate at the owning shard's next rotation.
func (s *Service) recoveredClean() bool {
	select {
	case <-s.recovered:
		return s.walOK.Load()
	default:
		return false
	}
}

// Recovering reports whether any shard is still in degraded-reads mode:
// serving its graphs' checkpoint snapshots while the log tail replays.
// Queued writes are applied after the flip, in submission order.
func (s *Service) Recovering() bool {
	for _, sh := range s.shards {
		if sh.w != nil && sh.w.recovering.Load() {
			return true
		}
	}
	return false
}

// WaitRecovered blocks until every shard has left degraded-reads mode (it
// returns immediately when durability is disabled). A shard whose recovery
// failed still counts as done: it serves its checkpointed prefix and
// rejects writes with the recovery error.
func (s *Service) WaitRecovered() { <-s.recovered }

// walGate returns the shard's sticky WAL failure wrapped for callers, or
// nil when writes may proceed.
func (sh *shard) walGate() error {
	if sh.w == nil {
		return nil
	}
	if err := sh.w.err(); err != nil {
		return fmt.Errorf("service: shard %d fail-stopped: %w", sh.idx, err)
	}
	return nil
}

// walAppend logs one just-applied update. Seq is the maintainer's update
// count after applying it, making each graph's sequence contiguous from 1.
func (sh *shard) walAppend(id GraphID, gs *graphState, u core.Update) error {
	rec := wal.Record{Graph: string(id), Seq: uint64(gs.dd.Updates()), Update: u}
	// The shard loop is the log's only appender, so the Stats delta around
	// this append is exactly this record's framed size — attribute it.
	before := sh.w.log.Stats().AppendBytes
	if err := sh.w.log.Append(&rec); err != nil {
		return sh.w.fail(err)
	}
	gs.meter.WALBytes.Add(sh.w.log.Stats().AppendBytes - before)
	return nil
}

// walRoundEnd accounts a committed round's updates toward the checkpoint
// cadence and rotates (checkpoint every graph + truncate the log) when due.
// Called after the round's futures resolve: a checkpoint failure
// fail-stops the shard but cannot retract already-durable acknowledgments.
func (sh *shard) walRoundEnd(applied int) {
	w := sh.w
	w.since += applied
	if w.since >= w.cfg.CheckpointEvery && w.err() == nil {
		if err := sh.checkpointShard(); err != nil {
			w.fail(err)
		}
	}
}

// checkpointShard durably checkpoints every graph on the shard, then
// truncates the log — every record is now covered by a checkpoint. Runs on
// the shard goroutine at a publish boundary, so each maintainer's state is
// exactly its published snapshot.
func (sh *shard) checkpointShard() error {
	w := sh.w
	sh.mu.RLock()
	ids := make([]GraphID, 0, len(sh.graphs))
	for id := range sh.graphs {
		ids = append(ids, id)
	}
	sh.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		gs := sh.lookup(id)
		c := &wal.Checkpoint{
			ID:     string(id),
			Seq:    uint64(gs.dd.Updates()),
			Pseudo: gs.dd.PseudoRoot(),
			Graph:  gs.dd.Frozen(),
			Tree:   gs.dd.Tree(),
		}
		if err := wal.WriteCheckpoint(w.cfg.Dir, c, w.cfg.Injector); err != nil {
			return err
		}
		w.checkpoints.Add(1)
	}
	if w.holdReset {
		if !w.barrier() {
			// The inherited log still holds the only durable copy of some
			// rerouted graphs' tails, and their new owners may not have
			// re-checkpointed yet: keep the file. Replay skips records the
			// checkpoints above cover, so deferring costs only log bytes.
			w.since = 0
			return nil
		}
		w.holdReset = false
	}
	if err := w.log.Reset(); err != nil {
		return err
	}
	w.since = 0
	return nil
}

// recoverReplay is the shard goroutine's prologue under WAL: for each
// recovered graph it rebuilds the maintainer from the already-published
// checkpoint snapshot (the query structure D is reconstructed fresh; the
// tree and graph are restored verbatim), replays the graph's log tail
// through the normal apply path, and atomically flips the published
// snapshot from the degraded checkpoint to the live replayed state. Reads
// are served throughout; writes queue in the mailbox until the prologue
// returns.
func (sh *shard) recoverReplay() {
	w := sh.w
	if w.cfg.holdRecovery != nil {
		<-w.cfg.holdRecovery
	}
	ok := true
	for _, id := range w.order {
		gs := sh.lookup(id)
		snap := gs.snap.Load()
		// Keep the shared machine's model processor budget at the paper's
		// per-instance maximum, as taskCreate does.
		if p := 2*snap.Graph.NumEdges() + snap.Graph.NumVertexSlots() + 1; p > sh.mach.Procs() {
			sh.mach.SetProcs(p)
		}
		gs.dd = core.NewDynamicRestored(snap.Graph, snap.Tree, snap.PseudoRoot, int(snap.Version), core.Options{Machine: sh.mach})
		for _, rec := range w.backlog[id] {
			have := uint64(gs.dd.Updates())
			if rec.Seq <= have {
				// Covered by the checkpoint (or duplicated across a
				// rotation crash): already part of the restored state.
				w.skipped.Add(1)
				continue
			}
			if rec.Seq != have+1 {
				w.fail(fmt.Errorf("service: graph %q: replay gap after seq %d (next record %d): %w", id, have, rec.Seq, wal.ErrCorrupt))
				ok = false
				break
			}
			t0 := time.Now()
			if _, err := gs.dd.Apply(rec.Update); err != nil {
				// Every logged update was accepted before the crash, so a
				// rejection on replay means divergence: fail loudly and
				// keep serving the intact prefix read-only.
				w.fail(fmt.Errorf("service: graph %q: replay of seq %d diverged: %v", id, rec.Seq, err))
				ok = false
				break
			}
			w.replayHist.Record(time.Since(t0))
			w.replayed.Add(1)
		}
		// Publish even with an empty tail: the degraded checkpoint snapshot
		// carries no LCA index, the restored maintainer's snapshot does.
		sh.publish(id, gs)
		if !ok {
			break
		}
		if w.graphDone != nil {
			w.graphDone()
		}
	}
	if ok && w.hadInput {
		// Fold the replayed tail into fresh checkpoints and truncate the
		// log so the next restart replays nothing.
		if err := sh.checkpointShard(); err != nil {
			w.fail(err)
			ok = false
		}
	}
	w.backlog, w.order = nil, nil
	w.recovering.Store(false)
	w.done(ok)
}
