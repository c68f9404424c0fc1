package obs

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestSpaceSavingExact: below capacity the sketch is an exact weighted
// counter — every key tracked, zero error, descending order.
func TestSpaceSavingExact(t *testing.T) {
	s := NewSpaceSaving(8)
	weights := map[string]uint64{"a": 5, "b": 30, "c": 1, "d": 12}
	for k, w := range weights {
		for i := uint64(0); i < w; i++ {
			s.Observe(k, 1)
		}
	}
	items := s.Snapshot()
	if len(items) != len(weights) {
		t.Fatalf("tracked %d keys, want %d", len(items), len(weights))
	}
	want := []string{"b", "d", "a", "c"}
	for i, it := range items {
		if it.Key != want[i] {
			t.Fatalf("rank %d = %q, want %q (items %v)", i, it.Key, want[i], items)
		}
		if it.Count != weights[it.Key] || it.Err != 0 {
			t.Fatalf("%q: count %d err %d, want %d err 0", it.Key, it.Count, it.Err, weights[it.Key])
		}
	}
}

// TestSpaceSavingHeavyHitter: under heavy skew with far more keys than
// capacity, the heavy hitters survive at the top with bounded error.
func TestSpaceSavingHeavyHitter(t *testing.T) {
	const capacity = 16
	s := NewSpaceSaving(capacity)
	rng := rand.New(rand.NewSource(7))
	var total uint64
	// Two heavy keys inside a stream of 4000 distinct light keys.
	for i := 0; i < 40000; i++ {
		var key string
		var w uint64
		switch {
		case i%3 == 0:
			key, w = "hot-1", 100
		case i%7 == 0:
			key, w = "hot-2", 60
		default:
			key, w = fmt.Sprintf("cold-%d", rng.Intn(4000)), 1
		}
		s.Observe(key, w)
		total += w
	}
	items := s.Snapshot()
	if len(items) > capacity {
		t.Fatalf("tracked %d keys, capacity %d", len(items), capacity)
	}
	if items[0].Key != "hot-1" || items[1].Key != "hot-2" {
		t.Fatalf("top-2 = %q, %q, want hot-1, hot-2", items[0].Key, items[1].Key)
	}
	for _, it := range items {
		if it.Count < it.Err {
			t.Fatalf("%q: count %d < err %d", it.Key, it.Count, it.Err)
		}
		// Space-Saving guarantee: every counter's overestimation is at most
		// total/capacity.
		if it.Err > total/capacity {
			t.Fatalf("%q: err %d exceeds total/capacity = %d", it.Key, it.Err, total/capacity)
		}
	}
}

// TestSpaceSavingRemove frees a slot so the next new key enters exactly.
func TestSpaceSavingRemove(t *testing.T) {
	s := NewSpaceSaving(2)
	s.Observe("a", 10)
	s.Observe("b", 20)
	s.Remove("a")
	if s.Len() != 1 {
		t.Fatalf("len after remove = %d, want 1", s.Len())
	}
	s.Observe("c", 1)
	for _, it := range s.Snapshot() {
		if it.Key == "c" && it.Err != 0 {
			t.Fatalf("c entered a freed slot with err %d, want 0", it.Err)
		}
	}
	s.Remove("never-tracked") // must not panic
}

// TestSpaceSavingConcurrentSnapshot races the single writer (Observe and
// Remove, as on a shard loop) against concurrent Snapshot/Len readers
// (run under -race in CI).
func TestSpaceSavingConcurrentSnapshot(t *testing.T) {
	s := NewSpaceSaving(8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Observe(fmt.Sprintf("k%d", i%20), uint64(i%5+1))
				if i%1000 == 999 {
					s.Remove("k3")
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		items := s.Snapshot()
		for j := 1; j < len(items); j++ {
			if items[j-1].Count < items[j].Count {
				t.Fatalf("snapshot not descending at %d: %v", j, items)
			}
		}
		_ = s.Len()
	}
	close(stop)
	wg.Wait()
}

// TestTenantMeterSnapshot pins the record/snapshot arithmetic.
func TestTenantMeterSnapshot(t *testing.T) {
	var m TenantMeter
	m.RecordUpdate(100*time.Microsecond, 60*time.Microsecond, 20*time.Microsecond, false)
	m.RecordUpdate(50*time.Microsecond, 10*time.Microsecond, 5*time.Microsecond, true)
	m.RecordIndex(time.Millisecond)
	m.RecordIndex(100 * time.Microsecond)
	m.WALBytes.Add(64)
	c := m.Snapshot()
	if c.Applied != 1 || c.Rejected != 1 {
		t.Fatalf("applied %d rejected %d, want 1/1", c.Applied, c.Rejected)
	}
	if c.ApplyTime != 150*time.Microsecond || c.EngineTime != 70*time.Microsecond || c.DMaintTime != 25*time.Microsecond {
		t.Fatalf("times %v/%v/%v", c.ApplyTime, c.EngineTime, c.DMaintTime)
	}
	if c.IndexBuilds != 2 || c.IndexTime != 1100*time.Microsecond {
		t.Fatalf("index %d in %v", c.IndexBuilds, c.IndexTime)
	}
	if c.WALBytes != 64 {
		t.Fatalf("wal bytes %d", c.WALBytes)
	}
}
