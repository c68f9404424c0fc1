package obs

import (
	"sync"
	"time"
)

// SeriesPoint is one sample of a SeriesRing: a timestamp plus one int64
// value per field, in the ring's field order.
type SeriesPoint struct {
	At     time.Time `json:"at"`
	Values []int64   `json:"v"`
}

// SeriesRing is a fixed-capacity ring buffer of multi-field time-series
// points: a background sampler Adds one point per interval and the ring
// retains the newest capacity of them, giving every scraper the same
// window-aligned history regardless of when (or how often) it polls. Adds
// reuse the evicted slot's value slice, so a steady-state sampler
// allocates nothing.
type SeriesRing struct {
	fields []string

	mu   sync.Mutex
	buf  []SeriesPoint
	next int // slot the next Add writes
	n    int // points currently held (≤ cap)
}

// NewSeriesRing returns a ring retaining the newest capacity points
// (minimum 2 — a single point supports no windowed derivation) of
// len(fields) values each.
func NewSeriesRing(fields []string, capacity int) *SeriesRing {
	if capacity < 2 {
		capacity = 2
	}
	return &SeriesRing{
		fields: append([]string(nil), fields...),
		buf:    make([]SeriesPoint, capacity),
	}
}

// Fields returns the ring's field names, in value order.
func (r *SeriesRing) Fields() []string { return r.fields }

// Add appends one point, evicting the oldest when full. len(values) must
// equal len(Fields()).
func (r *SeriesRing) Add(at time.Time, values ...int64) {
	if len(values) != len(r.fields) {
		panic("obs: SeriesRing.Add: value count does not match fields")
	}
	r.mu.Lock()
	p := &r.buf[r.next]
	p.At = at
	if cap(p.Values) < len(values) {
		p.Values = make([]int64, len(values))
	}
	p.Values = p.Values[:len(values)]
	copy(p.Values, values)
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns the number of retained points.
func (r *SeriesRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot copies the retained points, oldest first.
func (r *SeriesRing) Snapshot() []SeriesPoint {
	r.mu.Lock()
	out := make([]SeriesPoint, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		p := r.buf[(start+i)%len(r.buf)]
		out = append(out, SeriesPoint{At: p.At, Values: append([]int64(nil), p.Values...)})
	}
	r.mu.Unlock()
	return out
}

// LastTwo returns the two newest points (prev, last) and how many of them
// exist (0, 1 or 2). With n==1 only last is valid. The returned value
// slices are copies.
func (r *SeriesRing) LastTwo() (prev, last SeriesPoint, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return prev, last, 0
	}
	li := r.next - 1
	if li < 0 {
		li += len(r.buf)
	}
	p := r.buf[li]
	last = SeriesPoint{At: p.At, Values: append([]int64(nil), p.Values...)}
	if r.n == 1 {
		return prev, last, 1
	}
	pi := li - 1
	if pi < 0 {
		pi += len(r.buf)
	}
	p = r.buf[pi]
	prev = SeriesPoint{At: p.At, Values: append([]int64(nil), p.Values...)}
	return prev, last, 2
}
