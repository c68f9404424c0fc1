package service

import (
	"io"
	"strconv"

	"repro/internal/obs"
)

// writePromMetrics renders m in the Prometheus text exposition format
// (v0.0.4), as served at /debug/metrics. It is pure over its input so the
// golden test pins the exact output of a synthetic Metrics.
//
// Cardinality policy: scalars that differ per shard carry a shard label;
// latency distributions are exported as the cross-shard merge (per-shard
// native histograms would multiply the series count by the shard count);
// per-tenant counters stay on /debug/service/tenants — tenant IDs are
// unbounded and do not belong in label values.
func writePromMetrics(w io.Writer, m Metrics) error {
	p := obs.NewPromWriter(w)
	perShard := func(name, typ, help string, v func(sm *ShardMetrics) float64) {
		p.Family(name, typ, help)
		for i := range m.Shards {
			sm := &m.Shards[i]
			p.Value(v(sm), obs.PromLabel{Name: "shard", Value: strconv.Itoa(sm.Shard)})
		}
	}
	hist := func(name, help string, s obs.HistSnapshot, scale float64) {
		p.Family(name, "histogram", help)
		p.Histogram(s, scale)
	}

	p.Family("dfs_shards", "gauge", "configured shard count")
	p.Value(float64(len(m.Shards)))
	p.Family("dfs_graphs", "gauge", "graphs currently registered")
	p.Value(float64(m.Graphs))

	perShard("dfs_updates_total", "counter", "updates applied since start",
		func(sm *ShardMetrics) float64 { return float64(sm.Updates) })
	perShard("dfs_rejected_total", "counter", "updates rejected by the maintainer",
		func(sm *ShardMetrics) float64 { return float64(sm.Rejected) })
	perShard("dfs_updates_per_sec", "gauge", "applied-update rate over the sampler's last window",
		func(sm *ShardMetrics) float64 { return sm.UpdatesPerSec })
	perShard("dfs_queue_depth", "gauge", "tasks waiting in the shard mailbox",
		func(sm *ShardMetrics) float64 { return float64(sm.QueueDepth) })
	perShard("dfs_queue_cap", "gauge", "shard mailbox capacity",
		func(sm *ShardMetrics) float64 { return float64(sm.QueueCap) })
	perShard("dfs_queue_highwater", "gauge", "deepest mailbox over the current sample windows",
		func(sm *ShardMetrics) float64 { return float64(sm.QueueHighWater) })
	perShard("dfs_graphs_per_shard", "gauge", "graphs registered on the shard",
		func(sm *ShardMetrics) float64 { return float64(sm.Graphs) })
	perShard("dfs_oldest_snapshot_age_seconds", "gauge", "age of the stalest published snapshot",
		func(sm *ShardMetrics) float64 { return sm.OldestSnapshotAge.Seconds() })
	perShard("dfs_pram_depth", "gauge", "merged PRAM model depth of the shard machine",
		func(sm *ShardMetrics) float64 { return float64(sm.PRAMDepth) })
	perShard("dfs_pram_work", "gauge", "merged PRAM model work of the shard machine",
		func(sm *ShardMetrics) float64 { return float64(sm.PRAMWork) })
	perShard("dfs_pram_procs", "gauge", "PRAM model processor budget of the shard machine",
		func(sm *ShardMetrics) float64 { return float64(sm.PRAMProcs) })

	p.Family("dfs_stage_seconds_total", "counter", "cumulative update wall-clock by trace stage")
	for _, st := range []struct {
		name string
		v    float64
	}{
		{"wait", m.Stages.Wait.Seconds()},
		{"plan", m.Stages.Plan.Seconds()},
		{"engine", m.Stages.Engine.Seconds()},
		{"dmaint", m.Stages.DMaint.Seconds()},
		{"publish", m.Stages.Publish.Seconds()},
	} {
		p.Value(st.v, obs.PromLabel{Name: "stage", Value: st.name})
	}

	hist("dfs_apply_seconds", "maintainer apply time per update", m.ApplyHist, 1e-9)
	hist("dfs_mailbox_wait_seconds", "submit-to-receive wait per task", m.MailboxWaitHist, 1e-9)
	hist("dfs_publish_seconds", "snapshot publication time", m.PublishHist, 1e-9)
	hist("dfs_batch_size", "entries per coalesced batch round", m.BatchSizeHist, 1)

	p.Family("dfs_index_cache_hits_total", "counter", "query resolutions that found the snapshot's handle")
	p.Value(float64(m.IndexCacheHits))
	p.Family("dfs_index_cache_misses_total", "counter", "query resolutions that installed the snapshot's handle")
	p.Value(float64(m.IndexCacheMisses))
	p.Family("dfs_index_builds_total", "counter", "fresh index constructions")
	p.Value(float64(m.IndexBuilds))
	hist("dfs_index_build_seconds", "per-index fresh build time", m.IndexBuildHist, 1e-9)
	hist("dfs_query_resolve_seconds", "handle resolution latency", m.QueryResolveHist, 1e-9)

	p.Family("dfs_migrations_total", "counter", "completed live graph migrations")
	p.Value(float64(m.Migrations))
	p.Family("dfs_migration_failures_total", "counter", "migration attempts that aborted")
	p.Value(float64(m.MigrationFailures))
	p.Family("dfs_routed_graphs", "gauge", "graphs routed away from their hash shard")
	p.Value(float64(m.RoutedGraphs))
	perShard("dfs_migrations_in_total", "counter", "graphs received through completed migrations",
		func(sm *ShardMetrics) float64 { return float64(sm.MigrationsIn) })
	perShard("dfs_migrations_out_total", "counter", "graphs handed off through completed migrations",
		func(sm *ShardMetrics) float64 { return float64(sm.MigrationsOut) })
	hist("dfs_migration_pause_seconds", "write pause per migration handoff (freeze to flip)", m.MigrationPauseHist, 1e-9)

	if m.WALEnabled {
		p.Family("dfs_wal_recovering", "gauge", "1 while any shard serves degraded checkpoint snapshots")
		p.Value(b2f(m.WALRecovering))
		p.Family("dfs_wal_recovery_graphs", "gauge", "graphs routed by the last recovery scan")
		p.Value(float64(m.WALRecoveryGraphsTotal))
		p.Family("dfs_wal_recovery_graphs_done", "gauge", "recovered graphs flipped to live replayed state")
		p.Value(float64(m.WALRecoveryGraphsDone))
		p.Family("dfs_wal_appends_total", "counter", "WAL records appended since open")
		p.Value(float64(m.WALAppends))
		p.Family("dfs_wal_append_bytes_total", "counter", "WAL bytes appended since open")
		p.Value(float64(m.WALAppendBytes))
		p.Family("dfs_wal_syncs_total", "counter", "WAL fsyncs issued")
		p.Value(float64(m.WALSyncs))
		p.Family("dfs_wal_replayed_total", "counter", "records replayed by recovery")
		p.Value(float64(m.WALReplayed))
		p.Family("dfs_wal_skipped_total", "counter", "recovery records already covered by a checkpoint")
		p.Value(float64(m.WALSkipped))
		p.Family("dfs_wal_checkpoints_total", "counter", "checkpoint files written")
		p.Value(float64(m.WALCheckpoints))
		p.Family("dfs_wal_torn_tails", "gauge", "torn log tails found by the last recovery scan")
		p.Value(float64(m.WALTornTails))
		p.Family("dfs_wal_orphan_records", "gauge", "orphan records found by the last recovery scan")
		p.Value(float64(m.WALOrphanRecords))
		hist("dfs_wal_append_seconds", "per-record append latency", m.WALAppendHist, 1e-9)
		hist("dfs_wal_sync_seconds", "per-fsync latency", m.WALSyncHist, 1e-9)
		hist("dfs_wal_replay_seconds", "per-record replay latency", m.WALReplayHist, 1e-9)
	}
	return p.Err()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
