package service

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// drive applies n random edge toggles to id, waiting for each.
func drive(t *testing.T, s *Service, id GraphID, g *graph.Persistent, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var u core.Update
		if e, ok := graph.RandomEdgeNotIn(g, rng); ok && i%2 == 0 {
			u = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
		} else {
			e, ok := graph.RandomExistingEdge(g, rng)
			if !ok {
				continue
			}
			u = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
		}
		fut, err := s.Apply(id, u)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if _, snap, err := fut.Wait(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		} else {
			g = snap.Graph
		}
	}
}

// TestQueueHighWaterMark pins the submit-side bookkeeping: the high-water
// mark records the deepest the mailbox has been within a sample window even
// when the queue is empty again by the time anyone looks, the background
// sampler (not Metrics) owns the window reset, and Metrics is a pure read —
// polling it never consumes the window.
func TestQueueHighWaterMark(t *testing.T) {
	// Mechanism first, on a bare shard with no consumer: fully deterministic.
	sh := &shard{mailbox: make(chan task, 8)}
	for i := 0; i < 5; i++ {
		if err := sh.submit(task{kind: taskKind(-1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sh.queueHWM.Load(); got != 5 {
		t.Fatalf("high-water after 5 undrained submits = %d, want 5", got)
	}
	// Drain two, submit one: the mark must hold the old peak, not the
	// current depth.
	<-sh.mailbox
	<-sh.mailbox
	if err := sh.submit(task{kind: taskKind(-1)}); err != nil {
		t.Fatal(err)
	}
	if got := sh.queueHWM.Load(); got != 5 {
		t.Fatalf("high-water after partial drain = %d, want 5 (peak retained)", got)
	}
	// The sampler's reset protocol: swap in the current depth and never
	// report below it.
	depth := len(sh.mailbox)
	if hwm := int(sh.queueHWM.Swap(int64(depth))); hwm != 5 {
		t.Fatalf("window read = %d, want 5", hwm)
	}
	if got := sh.queueHWM.Load(); got != int64(depth) {
		t.Fatalf("window reset to %d, want current depth %d", got, depth)
	}

	// End to end, with the ticker parked so the test cuts windows itself:
	// burst a live service and check the mark survives the drain, stays
	// visible across repeated polls and one window cut, then collapses only
	// after a full quiet window.
	s := New(Config{Shards: 1, SampleInterval: time.Hour})
	defer s.Close()
	rng := rand.New(rand.NewSource(11))
	g := graph.GnpConnected(128, 4.0/128, rng)
	mustCreate(t, s, "hwm", g)
	var futs []*Future
	for i := 0; i < 200; i++ {
		e, ok := graph.RandomExistingEdge(g, rng)
		if !ok {
			break
		}
		kind := core.DeleteEdge
		if i%2 == 1 {
			kind = core.InsertEdge
		}
		fut, err := s.Apply("hwm", core.Update{Kind: kind, U: e.U, V: e.V})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for _, fut := range futs {
		fut.Wait() // rejections (re-insert races) are fine; drain fully
	}
	m := s.Metrics().Shards[0]
	if m.QueueDepth != 0 {
		t.Fatalf("queue not drained: depth %d", m.QueueDepth)
	}
	// The producer enqueues channel sends while the consumer runs full DFS
	// maintenance per task, so the queue must have been observed non-empty
	// at some submission.
	if m.QueueHighWater <= 0 {
		t.Fatalf("high-water mark %d after a 200-update burst, want > 0", m.QueueHighWater)
	}
	// A second poll sees the same window — Metrics must not consume it.
	if m2 := s.Metrics().Shards[0]; m2.QueueHighWater != m.QueueHighWater {
		t.Fatalf("second poll saw high-water %d, first saw %d (poll consumed the window)",
			m2.QueueHighWater, m.QueueHighWater)
	}
	// One window cut: the peak moves into the last completed window and
	// stays reported.
	s.sampleOnce(time.Now())
	if m3 := s.Metrics().Shards[0]; m3.QueueHighWater != m.QueueHighWater {
		t.Fatalf("high-water %d after one window cut, want %d (last completed window)",
			m3.QueueHighWater, m.QueueHighWater)
	}
	// A second, quiet window: nothing submitted since the cut, so the mark
	// finally collapses to the drained depth.
	s.sampleOnce(time.Now())
	if m4 := s.Metrics().Shards[0]; m4.QueueHighWater != 0 {
		t.Fatalf("high-water mark %d after a quiet window, want 0", m4.QueueHighWater)
	}
}

// TestMetricsConcurrentRace hammers Metrics from several goroutines while
// updates flow (run under -race in CI): rates must never go negative and
// every returned sample must be internally consistent — the aggregate
// histograms equal to the merge of the per-shard snapshots they shipped
// with, the aggregate counters equal to the per-shard sums.
func TestMetricsConcurrentRace(t *testing.T) {
	s := New(Config{Shards: 4})
	defer s.Close()
	rng := rand.New(rand.NewSource(12))
	graphs := make(map[GraphID]*graph.Persistent)
	for _, id := range []GraphID{"a", "b", "c"} {
		g := graph.GnpConnected(96, 4.0/96, rand.New(rand.NewSource(int64(len(graphs)))))
		mustCreate(t, s, id, g)
		graphs[id] = g
	}
	_ = rng

	done := make(chan struct{})
	var writers sync.WaitGroup
	for id, g := range graphs {
		writers.Add(1)
		go func(id GraphID, g *graph.Persistent) {
			defer writers.Done()
			wrng := rand.New(rand.NewSource(int64(id[0])))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				e, ok := graph.RandomExistingEdge(g, wrng)
				if !ok {
					return
				}
				kind := core.DeleteEdge
				if i%2 == 1 {
					kind = core.InsertEdge
				}
				fut, err := s.Apply(id, core.Update{Kind: kind, U: e.U, V: e.V})
				if err != nil {
					return
				}
				fut.Wait()
			}
		}(id, g)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				m := s.Metrics()
				var sumRate float64
				var sumUpdates uint64
				var merged obs.HistSnapshot
				var stages StageTimes
				for _, sm := range m.Shards {
					if sm.UpdatesPerSec < 0 {
						t.Errorf("shard %d: negative rate %f", sm.Shard, sm.UpdatesPerSec)
					}
					if sm.QueueHighWater < sm.QueueDepth {
						t.Errorf("shard %d: high-water %d below depth %d", sm.Shard, sm.QueueHighWater, sm.QueueDepth)
					}
					sumRate += sm.UpdatesPerSec
					sumUpdates += sm.Updates
					merged.Merge(sm.ApplyHist)
					stages.Add(sm.Stages)
				}
				if m.UpdatesPerSec < 0 {
					t.Errorf("negative aggregate rate %f", m.UpdatesPerSec)
				}
				if math.Abs(m.UpdatesPerSec-sumRate) > 1e-6*(1+sumRate) {
					t.Errorf("aggregate rate %f != shard sum %f", m.UpdatesPerSec, sumRate)
				}
				if m.Updates != sumUpdates {
					t.Errorf("aggregate updates %d != shard sum %d", m.Updates, sumUpdates)
				}
				if m.ApplyHist != merged {
					t.Errorf("aggregate apply histogram is not the merge of its shard snapshots")
				}
				if m.Stages != stages {
					t.Errorf("aggregate stage times %+v != shard sum %+v", m.Stages, stages)
				}
			}
		}()
	}
	readers.Wait()
	close(done)
	writers.Wait()
}

// debugDoc mirrors the /debug/service JSON shape for the fields the test
// asserts on (histograms decode through the summary wire form).
type debugDoc struct {
	Now     time.Time `json:"now"`
	Shards  int       `json:"shards"`
	Metrics struct {
		Shards []struct {
			Shard     int             `json:"Shard"`
			Updates   uint64          `json:"Updates"`
			ApplyHist json.RawMessage `json:"ApplyHist"`
		} `json:"Shards"`
		Updates uint64 `json:"Updates"`
	} `json:"metrics"`
	SlowTraces []obs.Trace `json:"slow_traces"`
}

// TestDebugHandler drives a service and hits its debug endpoint like an
// operator would, asserting the ISSUE acceptance shape: JSON with per-shard
// histogram percentiles and at least one slow trace whose stage timings sum
// to within 10% of its recorded total.
func TestDebugHandler(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	rng := rand.New(rand.NewSource(13))
	g := graph.GnpConnected(192, 4.0/192, rng)
	mustCreate(t, s, "dbg", g)
	drive(t, s, "dbg", g, rng, 40)
	// Exercise the read path too, so the snapquery histograms have samples.
	if h, err := s.Query("dbg"); err != nil {
		t.Fatal(err)
	} else if _, err := h.LCA(0, 1); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/service")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/debug/service: status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/service: content type %q", ct)
	}
	var doc debugDoc
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/service: decode: %v", err)
	}
	if doc.Shards != 2 || len(doc.Metrics.Shards) != 2 {
		t.Fatalf("expected 2 shards in payload, got %d/%d", doc.Shards, len(doc.Metrics.Shards))
	}
	if doc.Metrics.Updates == 0 {
		t.Fatal("no updates in the metrics payload")
	}
	// Per-shard histogram percentiles: every shard that applied updates must
	// expose a parsed p50/p99 > 0 in its apply histogram.
	sawHist := false
	for _, sm := range doc.Metrics.Shards {
		if sm.Updates == 0 {
			continue
		}
		var h struct {
			Count uint64 `json:"count"`
			P50   int64  `json:"p50"`
			P99   int64  `json:"p99"`
			Max   int64  `json:"max"`
		}
		if err := json.Unmarshal(sm.ApplyHist, &h); err != nil {
			t.Fatalf("shard %d: apply histogram: %v", sm.Shard, err)
		}
		if h.Count == 0 || h.P50 <= 0 || h.P99 < h.P50 || h.Max < h.P99 {
			t.Fatalf("shard %d: implausible percentiles %+v", sm.Shard, h)
		}
		sawHist = true
	}
	if !sawHist {
		t.Fatal("no shard exposed apply-histogram percentiles")
	}
	// Slow traces: at least one, and every one's stages account for its
	// total within 10%.
	if len(doc.SlowTraces) == 0 {
		t.Fatal("no slow traces in the payload")
	}
	for i, tr := range doc.SlowTraces {
		if tr.Total <= 0 {
			t.Fatalf("trace %d: non-positive total %v", i, tr.Total)
		}
		sum := tr.StageSum()
		if diff := math.Abs(float64(sum - tr.Total)); diff > 0.1*float64(tr.Total) {
			t.Fatalf("trace %d: stage sum %v vs total %v (off by %v)", i, sum, tr.Total, time.Duration(diff))
		}
		if i > 0 && tr.Total > doc.SlowTraces[i-1].Total {
			t.Fatalf("traces not sorted slowest-first at %d", i)
		}
	}

	// The sibling endpoints respond.
	for _, path := range []string{"/debug/service/traces", "/debug/pprof/", "/"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, res.StatusCode)
		}
	}

	// Metrics carries both shards' PRAM accounting and the read path's
	// resolve latency.
	m := s.Metrics()
	var work int64
	for _, sm := range m.Shards {
		work += sm.PRAMWork
	}
	if work == 0 {
		t.Fatal("no PRAM work in the per-shard metrics")
	}
	if m.QueryResolveHist.Count == 0 {
		t.Fatal("no query resolution in the metrics")
	}
}
