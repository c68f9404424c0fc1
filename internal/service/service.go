package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/snapquery"
	"repro/internal/tree"
	"repro/internal/wal"
)

// GraphID names one tenant graph. IDs hash to shards with FNV-1a.
type GraphID string

// Sentinel errors. Shard-loop errors wrap these with the graph ID, so
// callers classify failures with errors.Is.
var (
	ErrClosed       = errors.New("service closed")
	ErrUnknownGraph = errors.New("no such graph")
	ErrGraphExists  = errors.New("graph already exists")
)

// Config sizes a Service. The zero value selects the documented defaults.
type Config struct {
	// Shards is the number of update loops (each one goroutine plus one
	// pram.Machine). Default: GOMAXPROCS.
	Shards int
	// MailboxDepth is the per-shard buffered-channel depth; submissions
	// block (backpressure) when a mailbox is full. Default 256.
	MailboxDepth int
	// Workers is ignored. Each shard's pram.Machine is an accountant only
	// and executes nothing; the shard loops are the service's parallelism.
	//
	// Deprecated: setting Workers has no effect.
	Workers int
	// Headroom is the vertex-ID headroom reserved per graph for vertex
	// insertions. Default 64.
	Headroom int
	// SlowTraces is the number of slowest update traces retained per shard
	// for inspection through SlowTraces() and the debug endpoint. Default
	// obs.DefaultSlowRingSize.
	SlowTraces int
	// SampleInterval is the background sampler's tick period: every tick it
	// snapshots each shard's cumulative counters into that shard's
	// time-series ring (served at /debug/service/history) and cuts the rate
	// and queue high-water windows that Metrics reports. Default 1s.
	SampleInterval time.Duration
	// SampleWindows is the number of sampler points retained per shard
	// (ring capacity): history depth = SampleWindows × SampleInterval.
	// Default 256.
	SampleWindows int
	// HotTenants is the capacity of each shard's Space-Saving hottest-graphs
	// sketch — the maximum tenants tracked per shard, independent of how
	// many graphs the shard has ever served. Any graph whose share of the
	// shard's cumulative apply cost exceeds 1/HotTenants is guaranteed to be
	// tracked. Default 128.
	HotTenants int
	// WAL enables durability: every applied update is appended to its
	// shard's write-ahead log (and fsynced per the configured policy) before
	// its Future resolves, checkpoints bound replay work, and Open recovers
	// the directory's state after a crash. nil disables durability; use
	// Open (not New) when set, so recovery failures surface as errors.
	WAL *WALConfig
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 256
	}
	if c.Headroom <= 0 {
		c.Headroom = 64
	}
	if c.SlowTraces <= 0 {
		c.SlowTraces = obs.DefaultSlowRingSize
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = time.Second
	}
	if c.SampleWindows <= 0 {
		c.SampleWindows = 256
	}
	if c.HotTenants <= 0 {
		c.HotTenants = 128
	}
	return c
}

// Service is a sharded, snapshot-isolated serving layer over many dynamic
// DFS maintainers. See the package documentation for the model.
type Service struct {
	cfg    Config
	shards []*shard
	closed atomic.Bool
	wg     sync.WaitGroup

	// Routing state: routes is the atomic copy-on-write graph-to-shard
	// table (see routing.go) — readers load it lock-free, writers replace
	// it under routeMu, which also serializes appends to the durable route
	// log. migMu serializes whole migrations (at most one graph moves at a
	// time); migrations/migFailures/migPauseHist are the service-level
	// migration counters and the write-pause distribution per handoff.
	routes       atomic.Pointer[routeMap]
	routeMu      sync.Mutex
	routeLog     *wal.RouteLog
	migMu        sync.Mutex
	migrations   atomic.Uint64
	migFailures  atomic.Uint64
	migPauseHist obs.Histogram

	// Sampler state: the background goroutine ticks every SampleInterval,
	// cutting each shard's rate/high-water window and appending one point
	// per shard to its series ring. sampleMu serializes ticks (the ticker
	// goroutine and tests driving sampleOnce directly); samplerStop ends
	// the goroutine, samplerDone confirms its exit.
	sampleMu    sync.Mutex
	samplerStop chan struct{}
	samplerDone chan struct{}

	// Recovery progress, readable while shards replay: graphs routed by the
	// last recovery scan and how many have flipped from degraded checkpoint
	// snapshots to live replayed state.
	recGraphsTotal atomic.Int64
	recGraphsDone  atomic.Int64

	// Durability state (see wal.go; only meaningful when cfg.WAL is set).
	// recovered closes once every shard has left degraded-reads mode;
	// walLock is the directory's exclusive single-owner lock, held from
	// Open until every shard goroutine has exited; walStale are old-epoch
	// log files removed after a clean recovery; walTorn/walOrphans describe
	// what the recovery scan found.
	recovered  chan struct{}
	walPending atomic.Int32
	walOK      atomic.Bool
	walLock    *wal.DirLock
	walStale   []string
	walTorn    int
	walOrphans int
}

// New starts a Service with cfg's shard count and mailbox depth. It panics
// if cfg.WAL is set and recovery fails; durable services should use Open.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a Service, recovering durable state from cfg.WAL.Dir when
// durability is enabled: the newest valid checkpoint of every graph is
// published immediately (reads work — degraded — before Open returns), and
// each shard replays its log tail before processing new writes. Open fails
// only on unrecoverable durability problems: an unreadable directory, a
// graph whose checkpoints are all corrupt, or an unopenable log.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:         cfg,
		shards:      make([]*shard, cfg.Shards),
		recovered:   make(chan struct{}),
		samplerStop: make(chan struct{}),
		samplerDone: make(chan struct{}),
	}
	// Empty routing table: every graph starts on its hash shard. openWAL
	// replaces it with the durable routes before routing any recovery.
	empty := make(routeMap)
	s.routes.Store(&empty)
	// All shards share one start instant so every first-sample rate window
	// in Metrics spans the same interval (see Metrics).
	started := time.Now()
	for i := range s.shards {
		sh := &shard{
			svc:     s,
			idx:     i,
			mach:    pram.NewMachine(1),
			mailbox: make(chan task, cfg.MailboxDepth),
			graphs:  make(map[GraphID]*graphState),
			slow:    obs.NewSlowRing(cfg.SlowTraces),
			hot:     obs.NewSpaceSaving(cfg.HotTenants),
			series:  obs.NewSeriesRing(seriesFields, cfg.SampleWindows),
			started: started,
		}
		s.shards[i] = sh
	}
	if cfg.WAL != nil {
		if err := s.openWAL(); err != nil {
			for _, sh := range s.shards {
				if sh.w != nil && sh.w.log != nil {
					sh.w.log.Close()
				}
			}
			if s.routeLog != nil {
				s.routeLog.Close()
			}
			s.walLock.Release()
			return nil, err
		}
	} else {
		close(s.recovered)
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.run(&s.wg)
	}
	go s.runSampler()
	return s, nil
}

// SlowTraces returns the slowest retained update traces across all shards,
// slowest first. Each shard retains its Config.SlowTraces slowest updates
// (by total latency: mailbox wait + apply + publish) since start.
func (s *Service) SlowTraces() []obs.Trace {
	var out []obs.Trace
	for _, sh := range s.shards {
		out = append(out, sh.slow.Snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// NumShards returns the configured shard count.
func (s *Service) NumShards() int { return len(s.shards) }

// CreateGraph registers g under id on its shard and waits for the initial
// snapshot (static DFS preprocessing runs on the shard loop). g is
// retained, immutable: the caller may keep reading and deriving versions
// from it.
func (s *Service) CreateGraph(id GraphID, g *graph.Persistent) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("service: create graph %q: nil graph", id)
	}
	fut := newFuture()
	if err := s.shardFor(id).submit(task{kind: taskCreate, id: id, g: g, fut: fut}); err != nil {
		return nil, err
	}
	_, snap, err := fut.Wait()
	return snap, err
}

// DropGraph removes id, waiting until the shard loop has retired it.
// Snapshots already handed out stay valid.
func (s *Service) DropGraph(id GraphID) error {
	fut := newFuture()
	if err := s.shardFor(id).submit(task{kind: taskDrop, id: id, fut: fut}); err != nil {
		return err
	}
	_, _, err := fut.Wait()
	return err
}

// Apply submits one update for id and returns a Future resolved by the
// owning shard once the update (and its snapshot publication) completes.
// It is a mailbox round of one: the same round ApplyBatch sends, holding
// one entry. Apply blocks only when the shard's mailbox is full.
func (s *Service) Apply(id GraphID, u core.Update) (*Future, error) {
	// The future and the round's one entry share an allocation: a separate
	// entry allocation measurably raised durable CPU per update.
	one := &struct {
		fut   Future
		entry [1]roundEntry
	}{fut: *newFuture()}
	one.entry[0] = roundEntry{id: id, upd: u, fut: &one.fut}
	if err := s.shardFor(id).submit(task{kind: taskApply, id: id, entries: one.entry[:], fut: &one.fut}); err != nil {
		return nil, err
	}
	return &one.fut, nil
}

// BatchItem is one update of a cross-graph batch.
type BatchItem struct {
	Graph  GraphID
	Update core.Update
}

// ApplyBatch submits a batch of updates, coalescing them into one mailbox
// round per shard: every shard receives a single task holding its items in
// submission order, applies them back to back, and publishes each touched
// graph's snapshot once at the end of the round. A round behaves entry for
// entry like that many Apply calls, except that its entries share the
// round's WAL commit and publishes. The returned futures are in items
// order and are always resolved, even when ApplyBatch also returns an
// error: if a shard rejects its sub-batch (service closing), that shard's
// futures resolve with the error while other shards' items — possibly
// already submitted — proceed normally, so a caller racing Close can still
// observe exactly which items were applied.
func (s *Service) ApplyBatch(items []BatchItem) ([]*Future, error) {
	futs := make([]*Future, len(items))
	perShard := make(map[*shard][]roundEntry, len(s.shards))
	for i, it := range items {
		futs[i] = newFuture()
		sh := s.shardFor(it.Graph)
		perShard[sh] = append(perShard[sh], roundEntry{id: it.Graph, upd: it.Update, fut: futs[i]})
	}
	var firstErr error
	for sh, entries := range perShard {
		if err := sh.submit(task{kind: taskApply, entries: entries}); err != nil {
			for _, en := range entries {
				en.fut.resolve(-1, nil, err)
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return futs, firstErr
}

// Snapshot returns id's latest published snapshot. It never blocks on the
// shard's update loop, and it follows the routing table across live
// migrations — a reader never observes the handoff.
func (s *Service) Snapshot(id GraphID) (*Snapshot, error) {
	_, gs := s.lookupState(id)
	if gs == nil {
		return nil, fmt.Errorf("service: graph %q: %w", id, ErrUnknownGraph)
	}
	return gs.snap.Load(), nil
}

// Tree returns id's current DFS tree and pseudo root (snapshot read).
func (s *Service) Tree(id GraphID) (*tree.Tree, int, error) {
	snap, err := s.Snapshot(id)
	if err != nil {
		return nil, 0, err
	}
	return snap.Tree, snap.PseudoRoot, nil
}

// IsAncestor answers an ancestry query against id's latest snapshot.
func (s *Service) IsAncestor(id GraphID, a, v int) (bool, error) {
	snap, err := s.Snapshot(id)
	if err != nil {
		return false, err
	}
	return snap.IsAncestor(a, v)
}

// Path returns the tree path from down up to ancestor up in id's latest
// snapshot.
func (s *Service) Path(id GraphID, down, up int) ([]int, error) {
	snap, err := s.Snapshot(id)
	if err != nil {
		return nil, err
	}
	return snap.Path(down, up)
}

// QueryHandle is a version-pinned analytics handle over one published
// snapshot: LCA, KthAncestor, subtree aggregates, tree paths and the full
// biconnectivity family (articulation points, bridges, component IDs).
// Each snapshot owns one handle, created by its first query, so its one
// index, the biconnectivity analysis, is built at most once per version
// and shared by every reader of that version. A handle pins exactly one
// version: it keeps answering consistently after any number of later
// updates, and after its graph is dropped.
type QueryHandle = snapquery.Handle

// Query returns the analytics handle of id's latest published snapshot.
// Once the snapshot has its handle, resolving it is one atomic load — no
// allocation and no index construction.
func (s *Service) Query(id GraphID) (*QueryHandle, error) {
	sh, gs := s.lookupState(id)
	if gs == nil {
		return nil, fmt.Errorf("service: graph %q: %w", id, ErrUnknownGraph)
	}
	return sh.queryHandle(gs.snap.Load()), nil
}

// QuerySnapshot returns the analytics handle of a specific retained
// snapshot — the same handle every earlier query of that snapshot got, so
// pinned old versions stay queryable, with no rebuild, while newer
// versions are published and served.
func (s *Service) QuerySnapshot(snap *Snapshot) *QueryHandle {
	return s.shardFor(snap.ID).queryHandle(snap)
}

// Verify checks id's latest snapshot (tree is a DFS tree of the graph).
func (s *Service) Verify(id GraphID) error {
	snap, err := s.Snapshot(id)
	if err != nil {
		return err
	}
	return snap.Verify()
}

// Verify checks id's latest snapshot; CheckSynced goes further and runs the
// maintainer-side oracle on the shard loop itself: it validates that the
// graph's query structure D is exactly the structure a fresh build over the
// current snapshot's graph and tree would produce (the recovery acceptance
// check — replayed state must be indistinguishable from never having
// crashed), which includes that the tree's LCA index equals a fresh
// derivation from its numbering. It queues behind pending updates like any
// write.
func (s *Service) CheckSynced(id GraphID) error {
	fut := newFuture()
	if err := s.shardFor(id).submit(task{kind: taskCheck, id: id, fut: fut}); err != nil {
		return err
	}
	_, _, err := fut.Wait()
	return err
}

// ShutdownShard describes one shard that failed to drain before a
// CloseContext deadline.
type ShutdownShard struct {
	Shard      int
	QueueDepth int // tasks still waiting in the mailbox
}

// ShutdownError reports a shutdown deadline expiring with shards still
// running: which shards had not exited and how deep their queues were. The
// shards keep draining in the background; their goroutines exit once the
// backlog (and any wedged task) completes.
type ShutdownError struct {
	Undrained []ShutdownShard
	Cause     error // the context's error
}

func (e *ShutdownError) Error() string {
	depth := 0
	for _, u := range e.Undrained {
		depth += u.QueueDepth
	}
	return fmt.Sprintf("service: shutdown deadline: %d shards undrained (%d tasks queued): %v",
		len(e.Undrained), depth, e.Cause)
}

// Unwrap exposes the context error for errors.Is(err, context.Deadline...).
func (e *ShutdownError) Unwrap() error { return e.Cause }

// Close drains and stops the service: new submissions fail with ErrClosed,
// every already-enqueued task is processed and its Future resolved, and the
// shard goroutines exit before Close returns. Reads remain available.
func (s *Service) Close() error { return s.CloseContext(context.Background()) }

// CloseContext is Close with a deadline: if ctx expires before every shard
// drains, it returns a *ShutdownError naming the undrained shards and their
// queue depths instead of hanging on a wedged update. Shutdown itself is
// not cancelled — submissions already fail and the shards keep draining in
// the background; enqueued Futures still resolve eventually.
func (s *Service) CloseContext(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	// Stop the sampler first: it must not outlive the service.
	close(s.samplerStop)
	<-s.samplerDone
	for _, sh := range s.shards {
		sh.submitMu.Lock()
		sh.closed = true
		close(sh.mailbox)
		sh.submitMu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// Every shard goroutine has exited (logs closed), so the directory
		// can change owners — also on the deadline path, where this runs
		// once the background drain completes. The route log closes under
		// routeMu so it can never race a migration's commit append.
		if s.routeLog != nil {
			s.routeMu.Lock()
			s.routeLog.Close()
			s.routeMu.Unlock()
		}
		s.walLock.Release()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e := &ShutdownError{Cause: ctx.Err()}
		for _, sh := range s.shards {
			if !sh.stopped.Load() {
				e.Undrained = append(e.Undrained, ShutdownShard{Shard: sh.idx, QueueDepth: len(sh.mailbox)})
			}
		}
		return e
	}
}
