package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/snapquery"
	"repro/internal/wal"
)

type taskKind int

const (
	taskCreate taskKind = iota
	taskDrop
	taskApply // one mailbox round of updates: Apply sends one entry, ApplyBatch one round per shard
	taskCheck // run the D/graph/tree sync oracle on the shard loop
	taskFunc  // run an arbitrary closure on the shard loop (migration steps, tests)
)

// maxForwardHops caps how many times a task can be rerouted after racing
// migration flips before it fails instead of bouncing forever.
const maxForwardHops = 16

// task is one mailbox message. Exactly one of the payload fields is set,
// per kind. fut is non-nil for create, drop and check, and for an apply
// round of one entry (it is that entry's future); a longer round's entries
// carry their own futures.
type task struct {
	kind     taskKind
	id       GraphID
	g        *graph.Persistent // create: initial graph (retained, immutable)
	entries  []roundEntry      // apply: the round's updates, in submission order
	fn       func()            // func (migration protocol steps; tests: wedge or probe the loop)
	fut      *Future
	hops     int       // times forwarded across shards after a migration flip
	enqueued time.Time // stamped by submit; mailbox wait = receive - enqueued
}

type roundEntry struct {
	id  GraphID
	upd core.Update
	fut *Future
}

// resolution is one applied (or rejected) round entry awaiting the round's
// commit and publishes.
type resolution struct {
	fut    *Future
	gs     *graphState
	id     GraphID
	vertex int
	err    error
	tr     obs.Trace
}

// graphState is one tenant graph on a shard: the maintainer (touched only
// by the shard goroutine) and the atomically published snapshot (read by
// everyone).
type graphState struct {
	dd   *core.DynamicDFS
	snap atomic.Pointer[Snapshot]

	// meter is the graph's cumulative cost attribution (updates, stage
	// nanos, WAL bytes, index work). Created with the graphState and never
	// nil; the shard loop writes the update-path fields, reader goroutines
	// the index fields, and Metrics/TenantMetrics sample it lock-free.
	meter *obs.TenantMeter

	// Migration freeze state (shard loop only). While migrating is set the
	// graph's tasks are parked in deferred instead of being applied — the
	// maintainer must not advance past the checkpoint the migration pinned.
	// The coordinator replays deferred on the destination after the route
	// flips (or back here on abort), preserving submission order.
	migrating bool
	deferred  []task

	// roundLast marks the graph within the current apply round (shard loop
	// only): 1 + the index in the shard's round scratch of its last applied
	// entry, 0 when the round has applied nothing to it.
	roundLast int
}

// shard owns a set of graphs, the goroutine that applies their updates, and
// the accounting-only pram.Machine whose merged depth/work all of them
// share.
type shard struct {
	// svc points back to the owning Service for routing decisions (straggler
	// forwarding after a migration flip, durable route removal on drop). nil
	// in tests that construct bare shards.
	svc     *Service
	idx     int
	mach    *pram.Machine
	mailbox chan task

	// submitMu serializes submissions against Close: senders hold the read
	// lock, Close flips closed and closes the mailbox under the write lock,
	// so no send can race the close.
	submitMu sync.RWMutex
	closed   bool

	// mu guards the graphs map structure (the shard loop writes on
	// create/drop; readers resolve IDs under the read lock).
	mu     sync.RWMutex
	graphs map[GraphID]*graphState

	// Read-path counters, written by reader goroutines: handle resolutions
	// that found the snapshot's handle installed (hits) or installed it
	// (misses), bicon builds with their summed and distributed durations,
	// and resolution latency.
	queryHits, queryMisses atomic.Uint64
	indexBuilds            atomic.Uint64
	indexBuildNanos        atomic.Int64
	indexBuildHist         obs.Histogram
	queryResolveHist       obs.Histogram

	updates  atomic.Uint64 // successfully applied updates
	rejected atomic.Uint64 // updates rejected by the maintainer
	started  time.Time

	// queueHWM is the deepest the mailbox has been since the last sampler
	// tick (submitters CAS it up after every send), so queue spikes between
	// ticks are visible; only the sampler reads and resets it, per window,
	// so Metrics callers never consume each other's windows.
	queueHWM atomic.Int64

	// hot ranks the shard's graphs by cumulative apply cost (nanoseconds)
	// with bounded memory; the shard loop is the only Observe caller.
	hot *obs.SpaceSaving

	// series is the shard's sampled counter history (see seriesFields): the
	// background sampler appends one point per tick, Metrics and the
	// history endpoint read it. prevApply/prevWALSync are the sampler's
	// previous cumulative histogram snapshots for windowed percentiles,
	// touched only under the service's sample lock.
	series      *obs.SeriesRing
	prevApply   obs.HistSnapshot
	prevWALSync obs.HistSnapshot

	// Latency distributions of the shard's write path (lock-free; recorded
	// by the shard loop, sampled by Metrics and the debug endpoint):
	// maintainer apply time per update, snapshot publish time per
	// publication, mailbox wait per task, and entries per batch round.
	applyHist   obs.Histogram
	waitHist    obs.Histogram
	publishHist obs.Histogram
	batchHist   obs.Histogram

	// stageNanos accumulates per-stage wall-clock across every applied
	// update, indexed like obs.StageNames; slow retains the slowest-K
	// update traces for inspection.
	stageNanos [5]atomic.Int64
	slow       *obs.SlowRing

	// migrationsIn/Out count graphs this shard received from / handed to
	// another shard through completed migrations.
	migrationsIn  atomic.Uint64
	migrationsOut atomic.Uint64

	// w is the shard's durability state; nil when the service runs without
	// a write-ahead log. stopped flips when the goroutine exits, so a
	// deadline-bounded shutdown can report which shards are still running.
	w       *shardWAL
	stopped atomic.Bool

	// round and touched are the apply round's scratch (shard loop only),
	// cleared each round: the entries awaiting resolution, and the graphs
	// the round applied to, in first-touch order.
	round   []resolution
	touched []*graphState
}

// submit enqueues t unless the shard is closed. It blocks while the mailbox
// is full (backpressure toward the producer).
func (sh *shard) submit(t task) error {
	sh.submitMu.RLock()
	defer sh.submitMu.RUnlock()
	if sh.closed {
		return ErrClosed
	}
	t.enqueued = time.Now()
	sh.mailbox <- t
	// Raise the sample window's queue high-water mark: a burst that drains
	// before the next sampler tick still leaves its footprint here.
	if d := int64(len(sh.mailbox)); d > sh.queueHWM.Load() {
		for {
			cur := sh.queueHWM.Load()
			if d <= cur || sh.queueHWM.CompareAndSwap(cur, d) {
				break
			}
		}
	}
	return nil
}

// run is the shard's update loop: it drains the mailbox until Close closes
// it, applying every task in submission order. Under WAL the loop is
// bracketed by the recovery prologue (replay the log tail while reads serve
// the checkpoint snapshots) and a closing sync of the log.
func (sh *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer sh.stopped.Store(true)
	if sh.w != nil {
		sh.recoverReplay()
	}
	for t := range sh.mailbox {
		sh.handle(t)
	}
	// A migration frozen when the service closed leaves parked tasks whose
	// futures nobody will replay: resolve them so their writers never hang.
	sh.mu.RLock()
	for _, gs := range sh.graphs {
		for _, dt := range gs.unfreeze() {
			dt.fut.resolve(-1, nil, ErrClosed)
		}
	}
	sh.mu.RUnlock()
	if sh.w != nil {
		sh.w.log.Close()
	}
}

func (sh *shard) lookup(id GraphID) *graphState {
	sh.mu.RLock()
	gs := sh.graphs[id]
	sh.mu.RUnlock()
	return gs
}

// addGraph publishes gs's first snapshot and registers it as id: the
// inverse of removeGraph.
func (sh *shard) addGraph(id GraphID, gs *graphState) *Snapshot {
	snap := sh.publish(id, gs)
	sh.mu.Lock()
	sh.graphs[id] = gs
	sh.mu.Unlock()
	return snap
}

// restore rebuilds a maintainer from c on the shard's machine: recovery
// restores a graph from its checkpoint file, a migration from the
// checkpoint value the source handed over.
func (sh *shard) restore(c *wal.Checkpoint) *core.DynamicDFS {
	sh.growProcs(c.Graph)
	return core.NewDynamicRestored(c.Graph, c.Tree, c.Pseudo, int(c.Seq), core.Options{
		Headroom: sh.svc.cfg.Headroom,
		Machine:  sh.mach,
	})
}

// removeGraph unregisters id and forgets its heat and its share of the
// model processor budget, returning the removed state (nil when the shard
// did not hold id).
func (sh *shard) removeGraph(id GraphID) *graphState {
	sh.mu.Lock()
	gs := sh.graphs[id]
	delete(sh.graphs, id)
	sh.mu.Unlock()
	if gs != nil {
		sh.hot.Remove(string(id))
		sh.recomputeProcs()
	}
	return gs
}

// growProcs keeps the shared machine's model processor budget at the
// per-instance maximum (core.ModelProcs) across the shard's graphs as g
// joins them.
func (sh *shard) growProcs(g *graph.Persistent) {
	if p := core.ModelProcs(g); p > sh.mach.Procs() {
		sh.mach.SetProcs(p)
	}
}

// recomputeProcs resets the machine's model processor budget to the
// per-instance maximum over the shard's remaining graphs, so model depth
// charges stop being divided by a departed tenant's m. The maintainers are
// only touched by the shard goroutine, so reading their graphs here (on that
// goroutine) is race-free.
func (sh *shard) recomputeProcs() {
	procs := 1
	sh.mu.RLock()
	for _, rest := range sh.graphs {
		procs = max(procs, core.ModelProcs(rest.dd.Frozen()))
	}
	sh.mu.RUnlock()
	sh.mach.SetProcs(procs)
}

// forwardTask reroutes a task that landed here for a graph this shard does
// not hold, when the routing table says another shard owns it — the task
// was submitted against a route that a migration flipped before the
// mailbox drained to it. The forward runs on its own goroutine because a
// shard loop must never block on another shard's (possibly full) mailbox;
// hops caps pathological bouncing under back-to-back migrations. Returns
// false when the task is genuinely for an unknown graph (this shard is the
// routed owner) and the caller should reject it.
func (sh *shard) forwardTask(t task) bool {
	if sh.svc == nil || t.hops >= maxForwardHops {
		return false
	}
	target := sh.svc.shardFor(t.id)
	if target == sh {
		return false
	}
	t.hops++
	go func(t task) {
		if err := target.submit(t); err != nil {
			t.fut.resolve(-1, nil, err)
		}
	}(t)
	return true
}

// deferTask parks a task for a frozen (mid-migration) graph; the
// coordinator replays the parked tasks in order once the handoff resolves.
func (gs *graphState) deferTask(t task) {
	gs.deferred = append(gs.deferred, t)
}

// unfreeze ends gs's migration freeze and returns the tasks parked in it,
// in order.
func (gs *graphState) unfreeze() []task {
	deferred := gs.deferred
	gs.deferred, gs.migrating = nil, false
	return deferred
}

func (sh *shard) handle(t task) {
	switch t.kind {
	case taskCreate:
		if sh.lookup(t.id) != nil {
			t.fut.resolve(-1, nil, fmt.Errorf("service: graph %q: %w", t.id, ErrGraphExists))
			return
		}
		if sh.forwardTask(t) {
			return
		}
		if err := sh.walGate(); err != nil {
			t.fut.resolve(-1, nil, err)
			return
		}
		sh.growProcs(t.g)
		gs := &graphState{meter: &obs.TenantMeter{}, dd: core.New(t.g, core.Options{
			RebuildD: true,
			Headroom: sh.svc.cfg.Headroom,
			Machine:  sh.mach,
		})}
		if sh.w != nil {
			// A graph exists durably iff its checkpoint does: write the v0
			// checkpoint before acknowledging, so a crash can never have
			// acknowledged a graph that recovery would not restore.
			if err := sh.writeCheckpoint(checkpointOf(t.id, gs.dd)); err != nil {
				t.fut.resolve(-1, nil, fmt.Errorf("service: graph %q: %w", t.id, err))
				return
			}
		}
		t.fut.resolve(-1, sh.addGraph(t.id, gs), nil)

	case taskDrop:
		gs := sh.own(t)
		if gs == nil {
			return
		}
		if err := sh.walGate(); err != nil {
			t.fut.resolve(-1, gs.snap.Load(), err)
			return
		}
		sh.removeGraph(t.id)
		if sh.svc != nil {
			sh.svc.dropRoute(t.id)
		}
		if w := sh.w; w != nil {
			// Remove the graph durably: delete its checkpoints first, then
			// rotate (re-checkpoint survivors + truncate the log) so its
			// records vanish. A crash between the two steps leaves orphan
			// records that recovery counts and skips; the reverse order
			// could resurrect a dropped graph from checkpoint alone.
			wal.DeleteCheckpoints(w.cfg.Dir, string(t.id))
			if err := sh.checkpointShard(); err != nil {
				t.fut.resolve(-1, gs.snap.Load(), fmt.Errorf("service: graph %q: %w", t.id, err))
				return
			}
		}
		t.fut.resolve(-1, gs.snap.Load(), nil)

	case taskApply:
		sh.applyRound(t)

	case taskCheck:
		gs := sh.own(t)
		if gs == nil {
			return
		}
		// The published snapshot is the maintainer's current state: its
		// graph and tree must be the maintainer's own, which must pass the
		// maintainer's oracle (a DFS forest, the tree's own LCA index, and
		// D when there is one).
		snap := gs.snap.Load()
		var err error
		if snap.Graph != gs.dd.Graph() || snap.Tree != gs.dd.Tree() {
			err = errors.New("published snapshot is not the maintainer's graph and tree")
		} else {
			err = gs.dd.CheckSynced()
		}
		if err != nil {
			err = fmt.Errorf("service: graph %q: %w", t.id, err)
		}
		t.fut.resolve(-1, snap, err)

	case taskFunc:
		t.fn()
		t.fut.resolve(-1, nil, nil)
	}
}

// own resolves the graph a drop, check or one-entry apply task is for.
// When this shard does not hold the graph, own forwards t to the routed
// owner or rejects it with ErrUnknownGraph; when the graph is migrating, it
// parks t. Either way it returns nil and t is settled.
func (sh *shard) own(t task) *graphState {
	gs := sh.lookup(t.id)
	if gs == nil {
		if !sh.forwardTask(t) {
			t.fut.resolve(-1, nil, fmt.Errorf("service: graph %q: %w", t.id, ErrUnknownGraph))
		}
		return nil
	}
	if gs.migrating {
		gs.deferTask(t)
		return nil
	}
	return gs
}

// applyRound runs one mailbox round of updates (Apply's round holds one
// entry). It applies and logs every entry in order, covers the round with
// one WAL commit, publishes each touched graph's snapshot once, and
// resolves every future against its graph's round-final snapshot (which
// includes the entry's update; later entries of the same round may be
// included too). Each publish span goes on the trace of its graph's last
// applied entry, so a round of one traces exactly one update end to end.
func (sh *shard) applyRound(t task) {
	sh.batchHist.RecordValue(int64(len(t.entries)))
	applied := 0
	for i := range t.entries {
		en := &t.entries[i]
		// An entry for a graph this shard no longer holds, or one frozen
		// by a migration, leaves the round as a task of its own; slicing
		// the round's array keeps that allocation-free.
		gs := sh.own(task{kind: taskApply, id: en.id, entries: t.entries[i : i+1], fut: en.fut, hops: t.hops, enqueued: t.enqueued})
		if gs == nil {
			continue
		}
		// Gate each entry: a WAL failure mid-round must stop applying
		// before the maintainer diverges further from the log.
		if err := sh.walGate(); err != nil {
			en.fut.resolve(-1, gs.snap.Load(), err)
			continue
		}
		sh.round = append(sh.round, resolution{fut: en.fut, gs: gs, id: en.id})
		r := &sh.round[len(sh.round)-1]
		r.vertex, r.err = sh.applyTraced(&r.tr, en.id, gs, en.upd, t.enqueued, len(t.entries))
		if r.err != nil {
			sh.rejected.Add(1)
			continue
		}
		r.tr.Seq = sh.updates.Add(1)
		if sh.w != nil {
			if werr := sh.walAppend(en.id, gs, en.upd); werr != nil {
				r.err = fmt.Errorf("service: graph %q: %w", en.id, werr)
				continue
			}
		}
		if gs.roundLast == 0 {
			sh.touched = append(sh.touched, gs)
		}
		gs.roundLast = len(sh.round)
		applied++
	}
	if sh.w != nil && applied > 0 {
		// Commit before publishing: readers must never see an update the
		// log has not made durable. On failure the shard fail-stops and
		// nothing publishes (the maintainers have advanced, but no
		// acknowledgment or snapshot exposes it); every otherwise
		// successful entry resolves with the error.
		if werr := sh.w.log.Commit(); werr != nil {
			sh.w.fail(werr)
			for i := range sh.round {
				if r := &sh.round[i]; r.err == nil {
					r.err = fmt.Errorf("service: graph %q: %w", r.id, werr)
				}
			}
			applied = 0
		}
	}
	// Clear every touched graph's mark; publish only if the round committed
	// (a failed commit zeroed applied).
	for _, gs := range sh.touched {
		if applied > 0 {
			r := &sh.round[gs.roundLast-1]
			p0 := time.Now()
			sh.publish(r.id, gs)
			r.tr.Publish = time.Since(p0)
			sh.publishHist.Record(r.tr.Publish)
		}
		gs.roundLast = 0
	}
	for i := range sh.round {
		r := &sh.round[i]
		snap := r.gs.snap.Load()
		version := uint64(0)
		if r.err == nil {
			version = snap.Version
		}
		sh.sealTrace(&r.tr, version)
		r.fut.resolve(r.vertex, snap, r.err)
	}
	clear(sh.round)
	sh.round = sh.round[:0]
	clear(sh.touched)
	sh.touched = sh.touched[:0]
	if sh.w != nil {
		sh.walRoundEnd(applied)
	}
}

// applyTraced runs one update on gs's maintainer with stage
// instrumentation: it stamps tr with the mailbox wait, threads tr through
// the maintainer (which fills the engine/D-maintenance spans and the
// outcome tags), computes the plan span as the apply remainder, charges the
// update's PRAM depth/work delta, and records the wait/apply histograms.
func (sh *shard) applyTraced(tr *obs.Trace, id GraphID, gs *graphState, u core.Update, enqueued time.Time, batch int) (int, error) {
	recv := time.Now()
	*tr = obs.Trace{
		Graph: string(id),
		Shard: sh.idx,
		Kind:  u.Kind.String(),
		Start: recv,
		Wait:  recv.Sub(enqueued),
		Batch: batch,
	}
	d0, w0 := sh.mach.Depth(), sh.mach.Work()
	gs.dd.SetTrace(tr)
	v, err := gs.dd.Apply(u)
	gs.dd.SetTrace(nil)
	apply := time.Since(recv)
	tr.Depth, tr.Work = sh.mach.Depth()-d0, sh.mach.Work()-w0
	if plan := apply - tr.Engine - tr.DMaint; plan > 0 {
		tr.Plan = plan
	}
	if err != nil {
		tr.Outcome = "rejected"
		tr.Err = err.Error()
	}
	sh.waitHist.Record(tr.Wait)
	sh.applyHist.Record(apply)
	// Charge the update to its tenant (rejected updates included — they did
	// work) and to the shard's hottest-graphs sketch, weighted by apply cost
	// so "hot" means expensive, not merely chatty.
	gs.meter.RecordUpdate(apply, tr.Engine, tr.DMaint, err != nil)
	if apply > 0 {
		sh.hot.Observe(string(id), uint64(apply))
	}
	return v, err
}

// sealTrace finalizes tr (published version, total), folds its stages
// into the shard's cumulative stage-time breakdown, and offers it to the
// slowest-K ring. Total is defined as the stage sum, so a retained trace's
// stages always account for its whole recorded latency.
func (sh *shard) sealTrace(tr *obs.Trace, version uint64) {
	tr.Version = version
	tr.Total = tr.StageSum()
	sh.stageNanos[0].Add(int64(tr.Wait))
	sh.stageNanos[1].Add(int64(tr.Plan))
	sh.stageNanos[2].Add(int64(tr.Engine))
	sh.stageNanos[3].Add(int64(tr.DMaint))
	sh.stageNanos[4].Add(int64(tr.Publish))
	sh.slow.Offer(tr)
}

// publish freezes gs's current state into a new immutable snapshot and
// installs it. The graph (a persistent copy-on-write version) and the tree
// (logically immutable, replaced per update) are shared zero-copy,
// so publication is O(1): a pointer grab per structure and one small
// Snapshot allocation, regardless of graph size.
func (sh *shard) publish(id GraphID, gs *graphState) *Snapshot {
	dd := gs.dd
	snap := &Snapshot{
		ID:          id,
		Version:     uint64(dd.Updates()),
		Graph:       dd.Frozen(),
		Tree:        dd.Tree(),
		PseudoRoot:  dd.PseudoRoot(),
		LastStats:   dd.LastStats(),
		PublishedAt: time.Now(),
	}
	gs.snap.Store(snap)
	return snap
}

// queryHandle returns snap's analytics handle, creating it on first use.
// Readers racing on that first use each build a candidate, but only the
// compare-and-swap winner's is installed and the rest adopt it, so a
// version has one handle and one bicon build. Every later call is one
// atomic load. The build is charged to the graph registered under snap.ID
// when it runs; a dropped graph's build goes unattributed.
func (sh *shard) queryHandle(snap *Snapshot) *snapquery.Handle {
	start := time.Now()
	h := snap.query.Load()
	if h == nil {
		key := snapquery.Key{Graph: string(snap.ID), Version: snap.Version}
		fresh := snapquery.NewObserved(key, snap.Graph, snap.Tree, snap.PseudoRoot, func(d time.Duration) {
			sh.indexBuilds.Add(1)
			sh.indexBuildNanos.Add(int64(d))
			sh.indexBuildHist.Record(d)
			if gs := sh.lookup(snap.ID); gs != nil {
				gs.meter.RecordIndex(d)
			}
		})
		if snap.query.CompareAndSwap(nil, fresh) {
			sh.queryMisses.Add(1)
			sh.queryResolveHist.Record(time.Since(start))
			return fresh
		}
		h = snap.query.Load()
	}
	sh.queryHits.Add(1)
	sh.queryResolveHist.Record(time.Since(start))
	return h
}
