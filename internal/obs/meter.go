package obs

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// TenantMeter is one tenant graph's cumulative cost counters. The write
// path (the shard loop) is the single writer of the update-path fields;
// the index fields are bumped by reader goroutines when the snapshot
// analytics engine builds an index for the graph. Every field
// is an atomic, so Metrics pollers sample a meter without any lock and
// without ever touching the update loop.
//
// All counters are monotonic and cumulative since the meter's creation
// (graph creation, or service open for a recovered graph) — rates are
// derived by samplers from counter deltas, never stored here.
type TenantMeter struct {
	Applied  atomic.Uint64 // updates applied
	Rejected atomic.Uint64 // updates the maintainer rejected

	// Cumulative wall-clock of the tenant's updates, split like the trace
	// stages: ApplyNanos is the whole maintainer apply time (plan + engine
	// + dmaint; rejected updates included — they did work), EngineNanos
	// and DMaintNanos its reroot-engine and D-maintenance components.
	ApplyNanos  atomic.Int64
	EngineNanos atomic.Int64
	DMaintNanos atomic.Int64

	WALBytes atomic.Uint64 // WAL frame bytes appended for this graph

	// Index work attributed by the snapshot analytics engine: builds of
	// this graph's derived indexes and their summed wall-clock cost.
	IndexBuilds atomic.Uint64
	IndexNanos  atomic.Int64
}

// RecordUpdate folds one update's measured cost into the meter. It must
// only be called from the graph's single writer (the shard loop): the
// update-path fields are load+store, not read-modify-write, precisely
// because single-writer counters don't need the lock-prefixed add — this
// runs on the apply hot path of every update.
func (m *TenantMeter) RecordUpdate(apply, engine, dmaint time.Duration, rejected bool) {
	if rejected {
		m.Rejected.Store(m.Rejected.Load() + 1)
	} else {
		m.Applied.Store(m.Applied.Load() + 1)
	}
	m.ApplyNanos.Store(m.ApplyNanos.Load() + int64(apply))
	m.EngineNanos.Store(m.EngineNanos.Load() + int64(engine))
	m.DMaintNanos.Store(m.DMaintNanos.Load() + int64(dmaint))
}

// RecordIndex folds one index build into the meter. Safe to call from any
// goroutine.
func (m *TenantMeter) RecordIndex(d time.Duration) {
	m.IndexBuilds.Add(1)
	m.IndexNanos.Add(int64(d))
}

// TenantCounters is a point-in-time sample of a TenantMeter.
type TenantCounters struct {
	Applied     uint64        `json:"applied"`
	Rejected    uint64        `json:"rejected"`
	ApplyTime   time.Duration `json:"apply_ns"`
	EngineTime  time.Duration `json:"engine_ns"`
	DMaintTime  time.Duration `json:"dmaint_ns"`
	WALBytes    uint64        `json:"wal_bytes"`
	IndexBuilds uint64        `json:"index_builds"`
	IndexTime   time.Duration `json:"index_ns"`
}

// Snapshot samples every counter. Concurrent writers may land between two
// field loads; each field is itself consistent.
func (m *TenantMeter) Snapshot() TenantCounters {
	return TenantCounters{
		Applied:     m.Applied.Load(),
		Rejected:    m.Rejected.Load(),
		ApplyTime:   time.Duration(m.ApplyNanos.Load()),
		EngineTime:  time.Duration(m.EngineNanos.Load()),
		DMaintTime:  time.Duration(m.DMaintNanos.Load()),
		WALBytes:    m.WALBytes.Load(),
		IndexBuilds: m.IndexBuilds.Load(),
		IndexTime:   time.Duration(m.IndexNanos.Load()),
	}
}

// SpaceSaving is the Space-Saving heavy-hitters sketch (Metwally, Agrawal,
// El Abbadi 2005) over weighted keys: it tracks at most its capacity of
// counters, and when a new key arrives at a full sketch it inherits (and
// overestimates by) the smallest tracked count. Any key whose true weight
// exceeds total/capacity is guaranteed to be tracked, so a per-shard
// sketch ranks the hottest tenants with bounded memory no matter how many
// graphs the shard has ever served.
//
// Observe and Remove must be called from one single writer (the shard
// loop — Remove rides it via the drop task); Snapshot and Len may race
// them from any goroutine. The split keeps the hot path hot: a tracked
// key's Observe is one lock-free map read plus an atomic add, while
// structural changes (insert, evict, remove) and Snapshot serialize on
// the mutex. Lock-free increments leave the min-heap stale, so the
// structural paths re-heapify first when counts moved underneath it
// (O(capacity), amortized across the evictions of a cold-key storm and
// free for a stable hot set).
type SpaceSaving struct {
	capacity int
	dirty    bool // heap order stale (counts grew lock-free); writer-owned

	mu      sync.Mutex
	entries map[string]*ssEntry
	min     ssHeap // min-heap over count: the replacement victim is the root
}

type ssEntry struct {
	key   string
	count atomic.Uint64 // estimated weight (overestimate)
	err   uint64        // maximum overestimation inherited at replacement
	pos   int           // heap index
}

// SpaceItem is one tracked key of a SpaceSaving snapshot. The true weight
// of Key is within [Count-Err, Count].
type SpaceItem struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
}

// NewSpaceSaving returns a sketch tracking up to capacity keys (minimum 1).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving{
		capacity: capacity,
		entries:  make(map[string]*ssEntry, capacity),
	}
}

// Observe adds weight to key's counter, evicting the minimum counter when
// the sketch is full and key is untracked. Tracked keys — the steady state
// of a hot tenant — take the lock-free path: no mutex, no heap fix, just
// an atomic add and a dirty mark for the next structural operation. Safe
// only because Observe/Remove share one writer goroutine: nothing mutates
// the map or the entries' keys concurrently with the unlocked read.
func (s *SpaceSaving) Observe(key string, weight uint64) {
	if weight == 0 {
		return
	}
	if e, ok := s.entries[key]; ok {
		e.count.Add(weight)
		s.dirty = true
		return
	}
	s.mu.Lock()
	if len(s.entries) < s.capacity {
		e := &ssEntry{key: key}
		e.count.Store(weight)
		s.entries[key] = e
		// A stale heap stays a stale heap: Push keeps every entry and its
		// pos consistent, and s.dirty still forces the Init before the
		// order is next relied on.
		heap.Push(&s.min, e)
		s.mu.Unlock()
		return
	}
	// Replace the minimum: the newcomer inherits its count as overestimate.
	s.reheap()
	e := s.min[0]
	delete(s.entries, e.key)
	e.err = e.count.Load()
	e.count.Add(weight)
	e.key = key
	s.entries[key] = e
	heap.Fix(&s.min, 0)
	s.mu.Unlock()
}

// reheap restores heap order after lock-free count growth. Caller holds
// the mutex (and is the writer, so no count moves during the Init).
func (s *SpaceSaving) reheap() {
	if s.dirty {
		heap.Init(&s.min)
		s.dirty = false
	}
}

// Remove forgets key (its graph was dropped), freeing the slot. Writer
// goroutine only, like Observe.
func (s *SpaceSaving) Remove(key string) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		delete(s.entries, key)
		s.reheap()
		heap.Remove(&s.min, e.pos)
	}
	s.mu.Unlock()
}

// Len returns the number of tracked keys.
func (s *SpaceSaving) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Snapshot returns every tracked key, largest estimated weight first.
func (s *SpaceSaving) Snapshot() []SpaceItem {
	s.mu.Lock()
	out := make([]SpaceItem, len(s.min))
	for i, e := range s.min {
		out[i] = SpaceItem{Key: e.key, Count: e.count.Load(), Err: e.err}
	}
	s.mu.Unlock()
	// Heap order is only a partial order; sort descending for consumers.
	sortSpaceItems(out)
	return out
}

func sortSpaceItems(items []SpaceItem) {
	// Insertion sort: snapshots are small (≤ capacity) and mostly sorted.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && less(items[j-1], items[j]); j-- {
			items[j-1], items[j] = items[j], items[j-1]
		}
	}
}

func less(a, b SpaceItem) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Key > b.Key // stable, deterministic order among ties
}

type ssHeap []*ssEntry

func (h ssHeap) Len() int           { return len(h) }
func (h ssHeap) Less(i, j int) bool { return h[i].count.Load() < h[j].count.Load() }
func (h ssHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].pos = i; h[j].pos = j }
func (h *ssHeap) Push(x any)        { e := x.(*ssEntry); e.pos = len(*h); *h = append(*h, e) }
func (h *ssHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

var _ heap.Interface = (*ssHeap)(nil)
