package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultSlowRingSize is the slowest-K retention used when a SlowRing is
// created with a non-positive capacity.
const DefaultSlowRingSize = 8

// SlowRing retains the slowest K traces offered to it, for post-hoc
// inspection of tail latency ("why was that p99 update slow?"). Offer's
// fast path is one atomic load: once the ring is full, traces faster than
// the current slowest-K floor are dropped without taking the mutex, so a
// shard loop applying fast updates pays ~nothing.
type SlowRing struct {
	capacity int
	floor    atomic.Int64 // admission threshold: min Total once full

	mu     sync.Mutex
	traces []Trace
}

// NewSlowRing creates a ring retaining the slowest capacity traces
// (DefaultSlowRingSize when capacity <= 0).
func NewSlowRing(capacity int) *SlowRing {
	if capacity <= 0 {
		capacity = DefaultSlowRingSize
	}
	return &SlowRing{capacity: capacity, traces: make([]Trace, 0, capacity)}
}

// Offer submits t for retention; it is admitted iff the ring has room or t
// is slower than the current slowest-K floor. t is copied on admission, so
// the caller may reuse its Trace.
func (r *SlowRing) Offer(t *Trace) {
	if f := r.floor.Load(); f > 0 && int64(t.Total) <= f {
		return // full, and t is faster than everything retained
	}
	r.mu.Lock()
	if len(r.traces) < r.capacity {
		r.traces = append(r.traces, *t)
		if len(r.traces) == r.capacity {
			r.storeFloor()
		}
		r.mu.Unlock()
		return
	}
	// Replace the fastest retained trace, if t is slower.
	minI := 0
	for i := 1; i < len(r.traces); i++ {
		if r.traces[i].Total < r.traces[minI].Total {
			minI = i
		}
	}
	if t.Total > r.traces[minI].Total {
		r.traces[minI] = *t
		r.storeFloor()
	}
	r.mu.Unlock()
}

// storeFloor recomputes the admission threshold; callers hold r.mu.
func (r *SlowRing) storeFloor() {
	min := r.traces[0].Total
	for _, tr := range r.traces[1:] {
		if tr.Total < min {
			min = tr.Total
		}
	}
	r.floor.Store(int64(min))
}

// Snapshot returns the retained traces, slowest first.
func (r *SlowRing) Snapshot() []Trace {
	r.mu.Lock()
	out := append([]Trace(nil), r.traces...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}
