package snapquery

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tree"
)

// DefaultCapacity is the per-cache handle retention used when a Cache is
// created with a non-positive capacity.
const DefaultCapacity = 16

// Cache retains query handles in an LRU keyed by (graph, version). One
// handle per version is ever created: concurrent readers of the same
// version share it (and therefore share its one bicon build). The cache
// bounds how many versions keep their bicon index resident; evicting a
// version only drops the cache's reference — handles already handed out
// stay fully usable.
//
// The mutex guards only the map/list structure; index construction happens
// outside it, under the handle's own build-once guard, so a slow build
// never blocks hits on other versions.
type Cache struct {
	capacity int

	mu    sync.Mutex
	lru   *list.List // of *Handle; front = most recently used
	byKey map[Key]*list.Element

	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	dropped    atomic.Uint64
	builds     atomic.Uint64
	buildNanos atomic.Int64
	size       atomic.Int64 // mirrors lru.Len() so Stats never takes mu

	// Latency distributions of the read path: bicon builds (what
	// observe's sums above total) and handle resolution (Handle — the lock
	// window plus, on a miss, handle construction; index work happens
	// later, at first query, and lands in the build histogram).
	buildHist   obs.Histogram
	resolveHist obs.Histogram

	// attribute, when set, receives each index build tagged with its graph
	// so the owner can charge the work to a tenant. Set before the cache
	// sees traffic; called from reader goroutines.
	attribute func(graphName string, d time.Duration)
}

// NewCache creates a cache retaining up to capacity versions
// (DefaultCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		byKey:    make(map[Key]*list.Element, capacity),
	}
}

// Capacity returns the maximum number of retained versions.
func (c *Cache) Capacity() int { return c.capacity }

// SetAttribution installs a per-graph cost callback invoked for every index
// build the cache's handles perform. Must be set before the cache sees
// traffic (handles capture c.observe at creation, and the field is read
// without a lock).
func (c *Cache) SetAttribution(fn func(graphName string, d time.Duration)) {
	c.attribute = fn
}

func (c *Cache) observe(graphName string, d time.Duration) {
	c.builds.Add(1)
	c.buildNanos.Add(int64(d))
	c.buildHist.Record(d)
	if c.attribute != nil {
		c.attribute(graphName, d)
	}
}

// Handle returns the cached handle for key, creating (and caching) it from
// the supplied frozen snapshot parts on first use. The hit path is a map
// lookup plus an LRU bump — no allocation, no index work.
func (c *Cache) Handle(key Key, g *graph.Persistent, t *tree.Tree, pseudo int) *Handle {
	start := time.Now()
	defer func() { c.resolveHist.Record(time.Since(start)) }()
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		h := el.Value.(*Handle)
		if h.t == t {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return h
		}
		// Same key over a different snapshot: a dropped-and-recreated graph
		// whose version counter collided. Evict the stale incarnation.
		c.lru.Remove(el)
		delete(c.byKey, key)
		c.dropped.Add(1)
		c.size.Add(-1)
	}
	h := New(g, t, pseudo)
	h.key, h.observe = key, c.observe
	c.byKey[key] = c.lru.PushFront(h)
	c.size.Add(1)
	c.trim()
	c.mu.Unlock()
	c.misses.Add(1)
	return h
}

// DropGraph evicts every cached version of the named graph (the graph was
// dropped; its retained snapshots — and any held handles — stay valid).
func (c *Cache) DropGraph(graphName string) {
	c.mu.Lock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		h := el.Value.(*Handle)
		if h.key.Graph == graphName {
			c.lru.Remove(el)
			delete(c.byKey, h.key)
			c.dropped.Add(1)
			c.size.Add(-1)
		}
	}
	c.mu.Unlock()
}

// MoveGraph transfers every cached version of the named graph into dst (the
// graph migrated to another shard), preserving relative recency: entries are
// extracted here most-recent-first and pushed onto dst's front in reverse,
// so they arrive in the same order at dst's most-recent end. A version dst
// already caches keeps dst's copy (it is bumped instead), and dst's capacity
// is enforced afterwards. Moved handles keep observing the source cache's
// counters — a handle captures its observe callback at creation — so index
// work started before the move is attributed where it began; the skew lasts
// only until those versions age out. Locks are taken one cache at a time
// (source, then destination), never nested.
func (c *Cache) MoveGraph(graphName string, dst *Cache) {
	if c == dst {
		return
	}
	c.mu.Lock()
	var moved []*Handle // most recently used first
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		h := el.Value.(*Handle)
		if h.key.Graph == graphName {
			c.lru.Remove(el)
			delete(c.byKey, h.key)
			c.size.Add(-1)
			moved = append(moved, h)
		}
	}
	c.mu.Unlock()
	if len(moved) == 0 {
		return
	}
	dst.mu.Lock()
	for i := len(moved) - 1; i >= 0; i-- {
		h := moved[i]
		if el, ok := dst.byKey[h.key]; ok {
			dst.lru.MoveToFront(el)
			continue
		}
		dst.byKey[h.key] = dst.lru.PushFront(h)
		dst.size.Add(1)
	}
	dst.trim()
	dst.mu.Unlock()
}

// trim evicts least recently used versions until the cache is back within
// capacity, counting each as a capacity eviction. c.mu must be held.
func (c *Cache) trim() {
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*Handle).key)
		c.evictions.Add(1)
		c.size.Add(-1)
	}
}

// Stats is a point-in-time sample of the cache's counters. Evictions counts
// only capacity aging (the LRU is full and the oldest version falls off);
// versions removed because their graph was dropped or because a
// dropped-and-recreated graph collided on the same (graph, version) key —
// a stale incarnation — count under Dropped instead. Builds counts index
// constructions: at most 1 per version, the biconnectivity analysis (the
// LCA index is the tree's own, built by its first query, and SubtreeAgg
// and TreePath scan the tree with no index).
type Stats struct {
	Hits      uint64 // Handle calls answered from the LRU
	Misses    uint64 // Handle calls that created a new handle
	Evictions uint64 // versions aged out by capacity
	Dropped   uint64 // versions removed by DropGraph or stale incarnation
	Builds    uint64 // bicon index constructions (≤ 1 per version)
	BuildTime time.Duration
	Size      int // versions currently retained

	// Latency distributions behind the sums above: bicon build durations
	// and handle-resolution latency (the read-path entry point).
	// Merge per-shard snapshots for service-wide percentiles.
	BuildHist   obs.HistSnapshot
	ResolveHist obs.HistSnapshot
}

// Stats samples the counters. It is lock-free (atomics only), so metrics
// polling never contends with the Handle hot path.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Dropped:     c.dropped.Load(),
		Builds:      c.builds.Load(),
		BuildTime:   time.Duration(c.buildNanos.Load()),
		Size:        int(c.size.Load()),
		BuildHist:   c.buildHist.Snapshot(),
		ResolveHist: c.resolveHist.Snapshot(),
	}
}
