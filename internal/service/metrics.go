package service

import (
	"time"

	"repro/internal/obs"
)

// StageTimes is the cumulative wall-clock a shard's update loop spent in
// each trace stage across every applied update (see obs.Trace for the
// stage definitions). The five fields are disjoint, so their sum is the
// loop's total instrumented update time.
type StageTimes struct {
	Wait    time.Duration `json:"wait"`
	Plan    time.Duration `json:"plan"`
	Engine  time.Duration `json:"engine"`
	DMaint  time.Duration `json:"dmaint"`
	Publish time.Duration `json:"publish"`
}

// Add folds o into s.
func (s *StageTimes) Add(o StageTimes) {
	s.Wait += o.Wait
	s.Plan += o.Plan
	s.Engine += o.Engine
	s.DMaint += o.DMaint
	s.Publish += o.Publish
}

// Total returns the sum of the five stages.
func (s StageTimes) Total() time.Duration {
	return s.Wait + s.Plan + s.Engine + s.DMaint + s.Publish
}

// ShardMetrics is one shard's operational counters, sampled at call time.
type ShardMetrics struct {
	Shard      int
	Graphs     int
	QueueDepth int // tasks waiting in the mailbox at sample time
	QueueCap   int
	// QueueHighWater is the deepest the mailbox has been over the sampler's
	// last completed window plus the in-progress one (submitters raise the
	// mark on every send), so a burst that arrived and drained entirely
	// between two polls is still visible. The background sampler owns the
	// window reset; Metrics only reads, so concurrent pollers never consume
	// each other's windows.
	QueueHighWater int
	Updates        uint64 // updates applied since start
	Rejected       uint64 // updates the maintainer rejected
	// UpdatesPerSec is the shard loop's applied-update rate over the
	// background sampler's last completed window: the delta of the
	// cumulative update counter between the ring's two newest points.
	// Until two samples exist it reports the lifetime average since the
	// service-wide start instant. The rate is derived — Metrics mutates
	// nothing — so any number of concurrent pollers see the same value,
	// and because one ticker cuts every shard's window at the same
	// instant, the aggregate is a sum of rates over one common window. A
	// stalled shard decays to 0 once a windowed sample shows no progress.
	UpdatesPerSec float64
	// OldestSnapshotAge is the age of the stalest published snapshot among
	// the shard's graphs (0 when the shard has none): how far behind the
	// slowest tenant's readers can be.
	OldestSnapshotAge time.Duration
	// PRAMDepth/PRAMWork are the machine's merged model costs across every
	// maintainer on the shard; PRAMProcs is the machine's current model
	// processor budget (the per-instance maximum over the shard's graphs,
	// recomputed when a tenant is dropped).
	PRAMDepth int64
	PRAMWork  int64
	PRAMProcs int

	// Write-path latency distributions (log-bucketed histograms; nanosecond
	// samples unless noted): ApplyHist is the maintainer apply time per
	// update (rejected updates included — they did work), MailboxWaitHist
	// the submit→receive wait per task, PublishHist the snapshot
	// publication time per publication, and BatchSizeHist the entries per
	// mailbox round (unitless; Apply's rounds of one included). Snapshots
	// merge across shards; the aggregate Metrics carries exactly that merge.
	ApplyHist       obs.HistSnapshot
	MailboxWaitHist obs.HistSnapshot
	PublishHist     obs.HistSnapshot
	BatchSizeHist   obs.HistSnapshot

	// Stages is the cumulative stage-time breakdown of every applied
	// update: where the shard's update wall-clock actually went (mailbox
	// wait vs planning queries vs rerooting vs D maintenance vs publish).
	Stages StageTimes

	// Read-path counters of the shard's snapshot analytics engine. Each
	// published snapshot owns one query handle, created by its first
	// Query/QuerySnapshot: IndexCacheHits counts resolutions that found the
	// handle already on the snapshot, IndexCacheMisses the resolutions that
	// installed it. IndexBuilds counts index constructions (≤ 1 per
	// published version, the bicon analysis: the LCA index is the snapshot
	// tree's own, built by its first query, and SubtreeAgg is an O(|T(v)|)
	// scan of the tree's pre-order) and IndexBuildTime their summed
	// wall-clock cost.
	// The two histograms carry the corresponding read-path distributions:
	// bicon build durations and handle-resolution latency.
	IndexCacheHits   uint64
	IndexCacheMisses uint64
	IndexBuilds      uint64
	IndexBuildTime   time.Duration
	IndexBuildHist   obs.HistSnapshot
	QueryResolveHist obs.HistSnapshot

	// Migration traffic: graphs this shard received from / handed to other
	// shards through completed live migrations.
	MigrationsIn  uint64
	MigrationsOut uint64

	// Durability counters; all zero when the service runs without a WAL.
	// WALRecovering is true while the shard still serves degraded checkpoint
	// snapshots; WALFailed carries the sticky write-path failure (the shard
	// is fail-stopped — serving reads, rejecting writes — when non-empty).
	WALEnabled     bool
	WALRecovering  bool
	WALFailed      string
	WALAppends     uint64 // records appended since open
	WALAppendBytes uint64
	WALSyncs       uint64 // fsyncs issued (appends / syncs = group-commit fan-in)
	WALReplayed    uint64 // records replayed by recovery
	WALSkipped     uint64 // recovery records already covered by a checkpoint
	WALCheckpoints uint64 // checkpoint files written
	WALAppendHist  obs.HistSnapshot
	WALSyncHist    obs.HistSnapshot
	WALReplayHist  obs.HistSnapshot
}

// Metrics aggregates the per-shard samples. Every histogram is the exact
// merge of the per-shard snapshots taken by the same call, and the
// aggregate UpdatesPerSec is the sum of per-shard rates over one common
// window (see ShardMetrics.UpdatesPerSec), so the aggregate is always
// internally consistent with the Shards slice it ships with.
type Metrics struct {
	Shards        []ShardMetrics
	Graphs        int
	Updates       uint64
	Rejected      uint64
	UpdatesPerSec float64

	// Merged write-path latency distributions and stage breakdown.
	ApplyHist       obs.HistSnapshot
	MailboxWaitHist obs.HistSnapshot
	PublishHist     obs.HistSnapshot
	BatchSizeHist   obs.HistSnapshot
	Stages          StageTimes

	// Aggregated read-path counters across shards.
	IndexCacheHits   uint64
	IndexCacheMisses uint64
	IndexBuilds      uint64
	IndexBuildTime   time.Duration
	IndexBuildHist   obs.HistSnapshot
	QueryResolveHist obs.HistSnapshot

	// Deprecated: always zero. Snapshot indexes are no longer patched from
	// a parent version; these remain only because perfbench reads them.
	IndexPatches        uint64
	IndexPatchFallbacks uint64
	IndexPatchHist      obs.HistSnapshot

	// Migration and routing state. Migrations counts completed live graph
	// handoffs, MigrationFailures the attempts that aborted (the graph
	// stayed where it was), RoutedGraphs the graphs currently routed away
	// from their hash shard (the routing table's size), and
	// MigrationPauseHist the distribution of each handoff's write pause —
	// freeze on the source to routing flip, the window during which the
	// graph's writes were deferred.
	Migrations         uint64
	MigrationFailures  uint64
	RoutedGraphs       int
	MigrationPauseHist obs.HistSnapshot

	// Aggregated durability counters (see ShardMetrics). WALRecovering is
	// true while any shard is degraded; WALTornTails and WALOrphanRecords
	// describe what the last recovery scan found (a torn final record per
	// crashed log is normal; orphans belong to dropped graphs).
	WALEnabled    bool
	WALRecovering bool
	// Recovery progress of the last Open: graphs the recovery scan routed
	// to shards and how many have flipped from degraded checkpoint
	// snapshots to live replayed state. Equal once recovery completes.
	WALRecoveryGraphsTotal int64
	WALRecoveryGraphsDone  int64
	WALAppends             uint64
	WALAppendBytes         uint64
	WALSyncs               uint64
	WALReplayed            uint64
	WALSkipped             uint64
	WALCheckpoints         uint64
	WALTornTails           int
	WALOrphanRecords       int
	WALAppendHist          obs.HistSnapshot
	WALSyncHist            obs.HistSnapshot
	WALReplayHist          obs.HistSnapshot
}

// Metrics samples every shard. It takes only read locks and never touches
// the update loops.
func (s *Service) Metrics() Metrics {
	now := time.Now()
	out := Metrics{Shards: make([]ShardMetrics, len(s.shards))}
	for i, sh := range s.shards {
		var oldest time.Duration
		sh.mu.RLock()
		graphs := len(sh.graphs)
		for _, gs := range sh.graphs {
			if snap := gs.snap.Load(); snap != nil {
				if age := now.Sub(snap.PublishedAt); age > oldest {
					oldest = age
				}
			}
		}
		sh.mu.RUnlock()
		updates := sh.updates.Load()
		prev, last, n := sh.series.LastTwo()
		rate := 0.0
		switch {
		case n >= 2:
			// The sampler's last completed window: cumulative counter delta
			// between the ring's two newest points.
			if elapsed := last.At.Sub(prev.At).Seconds(); elapsed > 0 {
				rate = float64(last.Values[sUpdates]-prev.Values[sUpdates]) / elapsed
			}
		case n == 1:
			if elapsed := last.At.Sub(sh.started).Seconds(); elapsed > 0 {
				rate = float64(last.Values[sUpdates]) / elapsed
			}
		default:
			// No sample yet (poll before the first tick): lifetime average
			// over the shared start instant, identical across shards.
			if elapsed := now.Sub(sh.started).Seconds(); elapsed > 0 {
				rate = float64(updates) / elapsed
			}
		}
		// Queue high water: the in-progress window (raised by submitters
		// since the last sampler tick) or the last completed one, whichever
		// is deeper — and never below the current depth.
		depth := len(sh.mailbox)
		hwm := int(sh.queueHWM.Load())
		if n >= 1 {
			if w := int(last.Values[sQueueHWM]); w > hwm {
				hwm = w
			}
		}
		if depth > hwm {
			hwm = depth
		}
		stages := StageTimes{
			Wait:    time.Duration(sh.stageNanos[0].Load()),
			Plan:    time.Duration(sh.stageNanos[1].Load()),
			Engine:  time.Duration(sh.stageNanos[2].Load()),
			DMaint:  time.Duration(sh.stageNanos[3].Load()),
			Publish: time.Duration(sh.stageNanos[4].Load()),
		}
		out.Shards[i] = ShardMetrics{
			Shard:             sh.idx,
			Graphs:            graphs,
			QueueDepth:        depth,
			QueueCap:          cap(sh.mailbox),
			QueueHighWater:    hwm,
			Updates:           updates,
			Rejected:          sh.rejected.Load(),
			UpdatesPerSec:     rate,
			OldestSnapshotAge: oldest,
			PRAMDepth:         sh.mach.Depth(),
			PRAMWork:          sh.mach.Work(),
			PRAMProcs:         sh.mach.Procs(),
			ApplyHist:         sh.applyHist.Snapshot(),
			MailboxWaitHist:   sh.waitHist.Snapshot(),
			PublishHist:       sh.publishHist.Snapshot(),
			BatchSizeHist:     sh.batchHist.Snapshot(),
			Stages:            stages,
			IndexCacheHits:    sh.queryHits.Load(),
			IndexCacheMisses:  sh.queryMisses.Load(),
			IndexBuilds:       sh.indexBuilds.Load(),
			IndexBuildTime:    time.Duration(sh.indexBuildNanos.Load()),
			IndexBuildHist:    sh.indexBuildHist.Snapshot(),
			QueryResolveHist:  sh.queryResolveHist.Snapshot(),
			MigrationsIn:      sh.migrationsIn.Load(),
			MigrationsOut:     sh.migrationsOut.Load(),
		}
		sm := &out.Shards[i]
		if w := sh.w; w != nil {
			ls := w.log.Stats()
			sm.WALEnabled = true
			sm.WALRecovering = w.recovering.Load()
			if err := w.err(); err != nil {
				sm.WALFailed = err.Error()
			}
			sm.WALAppends = ls.Appends
			sm.WALAppendBytes = ls.AppendBytes
			sm.WALSyncs = ls.Syncs
			sm.WALReplayed = w.replayed.Load()
			sm.WALSkipped = w.skipped.Load()
			sm.WALCheckpoints = w.checkpoints.Load()
			sm.WALAppendHist = w.appendHist.Snapshot()
			sm.WALSyncHist = w.syncHist.Snapshot()
			sm.WALReplayHist = w.replayHist.Snapshot()
			out.WALEnabled = true
			if sm.WALRecovering {
				out.WALRecovering = true
			}
			out.WALAppends += sm.WALAppends
			out.WALAppendBytes += sm.WALAppendBytes
			out.WALSyncs += sm.WALSyncs
			out.WALReplayed += sm.WALReplayed
			out.WALSkipped += sm.WALSkipped
			out.WALCheckpoints += sm.WALCheckpoints
			out.WALAppendHist.Merge(sm.WALAppendHist)
			out.WALSyncHist.Merge(sm.WALSyncHist)
			out.WALReplayHist.Merge(sm.WALReplayHist)
		}
		out.Graphs += graphs
		out.Updates += updates
		out.Rejected += sm.Rejected
		out.UpdatesPerSec += rate
		out.ApplyHist.Merge(sm.ApplyHist)
		out.MailboxWaitHist.Merge(sm.MailboxWaitHist)
		out.PublishHist.Merge(sm.PublishHist)
		out.BatchSizeHist.Merge(sm.BatchSizeHist)
		out.Stages.Add(sm.Stages)
		out.IndexCacheHits += sm.IndexCacheHits
		out.IndexCacheMisses += sm.IndexCacheMisses
		out.IndexBuilds += sm.IndexBuilds
		out.IndexBuildTime += sm.IndexBuildTime
		out.IndexBuildHist.Merge(sm.IndexBuildHist)
		out.QueryResolveHist.Merge(sm.QueryResolveHist)
	}
	out.Migrations = s.migrations.Load()
	out.MigrationFailures = s.migFailures.Load()
	out.RoutedGraphs = s.RoutedGraphs()
	out.MigrationPauseHist = s.migPauseHist.Snapshot()
	out.WALTornTails = s.walTorn
	out.WALOrphanRecords = s.walOrphans
	out.WALRecoveryGraphsTotal = s.recGraphsTotal.Load()
	out.WALRecoveryGraphsDone = s.recGraphsDone.Load()
	return out
}
