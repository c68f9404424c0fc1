package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	dfs "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/tree"
	"repro/internal/wal"
)

// layerRun is the traced run: an untraced and a traced fixed-size phase
// against the service, then a single-goroutine replay of the same stream
// through each layer's public functions. Everything it reports is a
// per-layer metric.
type layerRun struct {
	s       spec
	in      *inputs
	ids     []dfs.GraphID
	tr      *tracer
	walRoot string

	untraced, traced time.Duration
	clientTput       float64 // updates/s of the untraced phase
	clientP99        float64 // ns, update latency of the untraced phase
	clientReadP99    float64 // ns, point-read latency of the untraced phase
	tracedUpdates    int
	tracedOps        int
	m0, m1           dfs.ServiceMetrics
	ms0, ms1         runtime.MemStats
	clientUpdNs      int64
	cold, warm       []int64
	finalTrees       []*tree.Tree

	// Layer replay.
	replayed    uint64 // WAL records replayed by the reopen
	replayHist  obs.HistSnapshot
	updates     int
	plan        time.Duration
	engine      time.Duration
	dmaint      time.Duration
	rounds      int64
	traversals  int64
	moved       int64
	walkQueries int64
	searchSteps int64
	incremental int64
	depth, work int64
	dWords      int64
}

// phases runs the untraced and the traced phase, each of steps steps, and
// samples the service's counters around the traced one.
func (l *layerRun) phases(c *client, svc *dfs.Service, steps int) error {
	runtime.GC()
	c.record = true
	l.untraced, _ = c.phase(steps, 0)
	l.clientTput = float64(len(c.upd)) / l.untraced.Seconds()
	l.clientP99 = quantile(latencies(c.upd), 0.99)
	l.clientReadP99 = quantile(latencies(c.reads), 0.99)
	c.upd, c.reads, c.coldQ, c.warmQ = nil, nil, nil, nil
	runtime.GC()
	l.m0 = svc.Metrics()
	runtime.ReadMemStats(&l.ms0)
	ops := c.attempted
	c.tr = l.tr
	l.traced, l.tracedUpdates = c.phase(steps, 0)
	c.tr = nil
	runtime.ReadMemStats(&l.ms1)
	l.m1 = svc.Metrics()
	l.tracedOps = c.attempted - ops
	for _, u := range c.upd {
		l.clientUpdNs += u.d
	}
	l.cold, l.warm = c.coldQ, c.warmQ
	for _, id := range l.ids {
		snap, err := svc.Snapshot(id)
		if err != nil {
			return err
		}
		l.finalTrees = append(l.finalTrees, snap.Tree)
	}
	l.timeTreeIsAncestor()
	return nil
}

var treeSink bool

// timeTreeIsAncestor times tree.Tree.IsAncestor on the pinned final
// snapshot trees, 64 calls per span so the clock reads do not dominate.
func (l *layerRun) timeTreeIsAncestor() {
	reads := l.in.reads
	for b := 0; b < 4096; b++ {
		t := l.finalTrees[b%len(l.finalTrees)]
		sp := l.tr.begin(spTreeIsAnc, -1, l.tr.newOp())
		for j := 0; j < 64; j++ {
			a := reads[(b*64+j)%len(reads)]
			treeSink = treeSink != t.IsAncestor(int(a.a), int(a.v))
		}
		l.tr.end(sp)
	}
}

// replay applies the first c.next updates of the stream to fresh core
// maintainers (the service's options: RebuildD, headroom 64, one worker)
// and to bare persistent graphs, timing every call, and checks that the
// replayed trees equal the service's.
func (l *layerRun) replay(c *client, svc *dfs.Service) error {
	in, tr := l.in, l.tr
	dds := make([]*core.DynamicDFS, len(in.graphs))
	pgs := make([]*graph.Persistent, len(in.graphs))
	for i, g := range in.graphs {
		m := pram.NewMachineWithWorkers(2*g.NumEdges()+g.NumVertexSlots()+1, 1)
		dds[i] = core.New(g, core.Options{RebuildD: true, Headroom: 64, Machine: m})
		pgs[i] = graph.PersistentOf(g)
	}
	for i := 0; i < c.next; i++ {
		o, _ := in.opAt(i)
		dd := dds[o.g]
		m := dd.Machine()
		q0, d0, w0 := dd.QueryStats(), m.Depth(), m.Work()
		var ot obs.Trace
		dd.SetTrace(&ot)
		sp := tr.begin(spCoreApply, -1, tr.newOp())
		_, err := dd.Apply(update(o))
		tr.end(sp)
		dd.SetTrace(nil)
		if err != nil {
			return fmt.Errorf("layer replay: update %d on graph %d: %w", i, o.g, err)
		}
		l.updates++
		l.engine += ot.Engine
		l.dmaint += ot.DMaint
		l.plan += max(0, tr.dur(sp)-ot.Engine-ot.DMaint)
		if !ot.SameTree {
			st := dd.LastStats()
			l.rounds += int64(st.Rounds)
			l.traversals += int64(st.TotalTraversal)
		}
		l.moved += int64(ot.Moved)
		q1 := dd.QueryStats()
		l.walkQueries += q1.WalkQueries - q0.WalkQueries
		l.searchSteps += q1.Searches + q1.ScanSteps - q0.Searches - q0.ScanSteps
		if ot.Outcome == "incremental" {
			l.incremental++
		}
		l.depth += m.Depth() - d0
		l.work += m.Work() - w0

		sp = tr.begin(spMutate, -1, tr.newOp())
		if o.ins {
			pgs[o.g], err = pgs[o.g].InsertEdge(int(o.u), int(o.v))
		} else {
			pgs[o.g], err = pgs[o.g].DeleteEdge(int(o.u), int(o.v))
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("persistent replay: update %d on graph %d: %w", i, o.g, err)
		}
	}
	for i, dd := range dds {
		l.dWords += dd.D().SizeWords()
		if !sameTree(dd.Tree(), l.finalTrees[i]) {
			return fmt.Errorf("layer replay: %s's replayed tree differs from the service's", l.ids[i])
		}
	}
	if !l.s.wal {
		return nil
	}
	dir, err := os.MkdirTemp(l.walRoot, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, dd := range dds {
		ck := &wal.Checkpoint{ID: string(l.ids[i]), Seq: uint64(dd.Updates()), Pseudo: dd.PseudoRoot(), Graph: dd.Frozen(), Tree: dd.Tree()}
		sp := tr.begin(spWriteCkpt, -1, tr.newOp())
		err := wal.WriteCheckpoint(dir, ck, nil)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("write checkpoint: %w", err)
		}
	}
	return nil
}

// restore times what recovery does before replaying log tails: loading
// the closed service's checkpoints and rebuilding a maintainer from each.
func (l *layerRun) restore(dir string) error {
	sp := l.tr.begin(spLoadCkpt, -1, l.tr.newOp())
	cks, err := wal.LoadCheckpoints(dir)
	l.tr.end(sp)
	if err != nil {
		return fmt.Errorf("load checkpoints: %w", err)
	}
	if len(cks) != len(l.ids) {
		return fmt.Errorf("load checkpoints: %d graphs, want %d", len(cks), len(l.ids))
	}
	for _, id := range l.ids {
		ck := cks[string(id)]
		if ck == nil {
			return fmt.Errorf("load checkpoints: no checkpoint for %s", id)
		}
		m := pram.NewMachineWithWorkers(2*ck.Graph.NumEdges()+ck.Graph.NumVertexSlots()+1, 1)
		sp := l.tr.begin(spRestore, -1, l.tr.newOp())
		core.NewDynamicRestored(ck.Graph, ck.Tree, ck.Pseudo, int(ck.Seq), core.Options{Machine: m})
		l.tr.end(sp)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func histQ(cur, prev obs.HistSnapshot, q float64) float64 {
	return float64(cur.Delta(prev).Quantile(q))
}

// report sets every per-layer metric. Metrics of a layer a workload does
// not use read 0.
func (l *layerRun) report(res *result) {
	m0, m1 := l.m0, l.m1
	upd := float64(l.updates)
	tu := float64(l.tracedUpdates)

	res.set("client.update_tput", "1/s", l.clientTput)
	res.set("client.update_p99_us", "us", l.clientP99/1e3)
	res.set("client.read_p99_us", "us", l.clientReadP99/1e3)
	res.set("service.mailbox_wait_p50_us", "us", histQ(m1.MailboxWaitHist, m0.MailboxWaitHist, 0.5)/1e3)
	res.set("service.publish_p50_us", "us", histQ(m1.PublishHist, m0.PublishHist, 0.5)/1e3)
	res.set("service.apply_p50_us", "us", histQ(m1.ApplyHist, m0.ApplyHist, 0.5)/1e3)
	res.set("service.apply_p99_us", "us", histQ(m1.ApplyHist, m0.ApplyHist, 0.99)/1e3)
	stages := m1.Stages.Total() - m0.Stages.Total()
	res.set("service.unstaged_frac", "ratio", 1-ratio(float64(stages), float64(l.clientUpdNs)))
	res.set("service.recover_s", "s", sum(l.tr.durations(spRecover)).Seconds())

	res.set("query.cold_p50_us", "us", quantile(l.cold, 0.50)/1e3)
	res.set("query.cold_p99_us", "us", quantile(l.cold, 0.99)/1e3)
	res.set("query.warm_p50_us", "us", quantile(l.warm, 0.50)/1e3)

	apply := l.tr.durations(spCoreApply)
	res.set("core.apply_p50_us", "us", quantile(apply, 0.50)/1e3)
	res.set("core.apply_p99_us", "us", quantile(apply, 0.99)/1e3)
	res.set("core.plan_s", "s", l.plan.Seconds())
	res.set("core.engine_s", "s", l.engine.Seconds())
	res.set("core.dmaint_s", "s", l.dmaint.Seconds())
	res.set("core.restore_s", "s", sum(l.tr.durations(spRestore)).Seconds())

	res.set("reroot.rounds_per_update", "count/update", ratio(float64(l.rounds), upd))
	res.set("reroot.traversals_per_update", "count/update", ratio(float64(l.traversals), upd))
	res.set("reroot.moved_per_update", "count/update", ratio(float64(l.moved), upd))

	res.set("dstruct.walk_queries_per_update", "count/update", ratio(float64(l.walkQueries), upd))
	res.set("dstruct.search_steps_per_update", "count/update", ratio(float64(l.searchSteps), upd))
	res.set("dstruct.incremental_frac", "ratio", ratio(float64(l.incremental), upd))
	res.set("dstruct.size_mwords", "Mwords", float64(l.dWords)/1e6)

	res.set("graph.mutate_p50_us", "us", quantile(l.tr.durations(spMutate), 0.50)/1e3)
	res.set("pram.depth_per_update", "count/update", ratio(float64(l.depth), upd))
	res.set("pram.work_per_update", "count/update", ratio(float64(l.work), upd))

	res.set("wal.append_p50_us", "us", histQ(m1.WALAppendHist, m0.WALAppendHist, 0.5)/1e3)
	res.set("wal.syncs_per_update", "count/update", ratio(float64(m1.WALSyncs-m0.WALSyncs), tu))
	res.set("wal.bytes_per_update", "B/update", ratio(float64(m1.WALAppendBytes-m0.WALAppendBytes), tu))
	res.set("wal.checkpoints", "count", float64(m1.WALCheckpoints-m0.WALCheckpoints))
	res.set("wal.checkpoint_p50_ms", "ms", quantile(l.tr.durations(spWriteCkpt), 0.50)/1e6)
	res.set("wal.load_ckpt_s", "s", sum(l.tr.durations(spLoadCkpt)).Seconds())
	res.set("wal.replayed_records", "count", float64(l.replayed))
	res.set("wal.replay_p50_us", "us", float64(l.replayHist.Quantile(0.5))/1e3)

	builds := float64(m1.IndexBuilds - m0.IndexBuilds)
	patches := float64(m1.IndexPatches - m0.IndexPatches)
	hits := float64(m1.IndexCacheHits - m0.IndexCacheHits)
	misses := float64(m1.IndexCacheMisses - m0.IndexCacheMisses)
	res.set("snapquery.build_p50_us", "us", histQ(m1.IndexBuildHist, m0.IndexBuildHist, 0.5)/1e3)
	res.set("snapquery.patch_p50_us", "us", histQ(m1.IndexPatchHist, m0.IndexPatchHist, 0.5)/1e3)
	res.set("snapquery.patch_frac", "ratio", ratio(patches, patches+builds))
	res.set("snapquery.fallbacks", "count", float64(m1.IndexPatchFallbacks-m0.IndexPatchFallbacks))
	res.set("snapquery.resolve_p50_us", "us", histQ(m1.QueryResolveHist, m0.QueryResolveHist, 0.5)/1e3)
	res.set("snapquery.cache_hit_frac", "ratio", ratio(hits, hits+misses))

	res.set("tree.is_ancestor_p50_ns", "ns", quantile(l.tr.durations(spTreeIsAnc), 0.50)/64)

	res.set("go.gc_cycles", "count", float64(l.ms1.NumGC-l.ms0.NumGC))
	res.set("go.gc_pause_ms", "ms", float64(l.ms1.PauseTotalNs-l.ms0.PauseTotalNs)/1e6)
	res.set("go.alloc_kb_per_op", "KiB/op", ratio(float64(l.ms1.TotalAlloc-l.ms0.TotalAlloc)/1024, float64(l.tracedOps)))

	res.set("trace.overhead_pct", "%", 100*(1-ratio(l.untraced.Seconds(), l.traced.Seconds())))
}
