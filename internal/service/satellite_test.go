package service

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// fnv32 mirrors shardFor's inline hash.
func fnv32(id GraphID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}

// TestShardForHighBitHash pins the shard-routing fix: reducing the FNV-1a
// hash modulo the shard count must happen in uint32 space. IDs whose hash
// has the high bit set would previously index with int(h) % shards, which is
// negative on 32-bit platforms; the test routes a set of such IDs and checks
// every one lands on the shard the uint32 reduction picks.
func TestShardForHighBitHash(t *testing.T) {
	svc := New(Config{Shards: 3})
	defer svc.Close()
	found := 0
	for i := 0; i < 1000 && found < 25; i++ {
		id := GraphID(fmt.Sprintf("tenant-%d", i))
		h := fnv32(id)
		if int32(h) >= 0 {
			continue // high bit clear: the old arithmetic was fine for these
		}
		found++
		want := svc.shards[h%uint32(len(svc.shards))]
		if got := svc.shardFor(id); got != want {
			t.Fatalf("shardFor(%q) (hash %#x) routed to shard %d, want %d", id, h, got.idx, want.idx)
		}
		// And the full write/read path works for such an ID.
		if _, err := svc.CreateGraph(id, graph.Path(4)); err != nil {
			t.Fatalf("CreateGraph(%q): %v", id, err)
		}
		fut, err := svc.Apply(id, core.Update{Kind: core.InsertEdge, U: 0, V: 3})
		if err != nil {
			t.Fatalf("Apply(%q): %v", id, err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatalf("apply wait (%q): %v", id, err)
		}
		if err := svc.Verify(id); err != nil {
			t.Fatalf("Verify(%q): %v", id, err)
		}
	}
	if found == 0 {
		t.Fatal("no test ID hashed with the high bit set")
	}
}

// instanceProcs is the paper's per-instance processor budget the shard loop
// grants a graph: m processors (2m adjacency words) plus the slot range.
func instanceProcs(n *Snapshot) int {
	return 2*n.Graph.NumEdges() + n.Graph.NumVertexSlots() + 1
}

// TestDropRecomputesProcs pins the PRAM-budget accounting fix: dropping the
// largest tenant must shrink the shard machine's model processor budget back
// to the maximum over the survivors (visible through ServiceMetrics), not
// leave it inflated at the departed tenant's m forever.
func TestDropRecomputesProcs(t *testing.T) {
	svc := New(Config{Shards: 1})
	defer svc.Close()
	rng := rand.New(rand.NewSource(71))
	bigSnap, err := svc.CreateGraph("big", graph.GnpConnected(256, 0.05, rng))
	if err != nil {
		t.Fatal(err)
	}
	smallSnap, err := svc.CreateGraph("small", graph.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	big, small := instanceProcs(bigSnap), instanceProcs(smallSnap)
	if big <= small {
		t.Fatalf("test graphs not ordered: big=%d small=%d", big, small)
	}
	if got := svc.Metrics().Shards[0].PRAMProcs; got != big {
		t.Fatalf("procs with both tenants = %d, want the big tenant's %d", got, big)
	}
	if err := svc.DropGraph("big"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Metrics().Shards[0].PRAMProcs; got != small {
		t.Fatalf("procs after dropping big tenant = %d, want surviving max %d", got, small)
	}
	if err := svc.DropGraph("small"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Metrics().Shards[0].PRAMProcs; got != 1 {
		t.Fatalf("procs on an empty shard = %d, want 1", got)
	}
}

// TestMetricsWindowedRate pins the UpdatesPerSec semantics: the rate is
// derived from the background sampler's ring (the ticker is parked at an
// hour here; the test cuts windows itself), so a shard that stops applying
// updates reports 0 once a windowed sample shows no progress, instead of
// coasting on its lifetime average — and polling Metrics never advances
// the window.
func TestMetricsWindowedRate(t *testing.T) {
	svc := New(Config{Shards: 1, SampleInterval: time.Hour})
	defer svc.Close()
	if _, err := svc.CreateGraph("g", graph.Path(8)); err != nil {
		t.Fatal(err)
	}
	apply := func(u core.Update) {
		t.Helper()
		fut, err := svc.Apply("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	apply(core.Update{Kind: core.InsertEdge, U: 0, V: 7})
	apply(core.Update{Kind: core.DeleteEdge, U: 0, V: 7})
	// No sample yet: lifetime average since start.
	if got := svc.Metrics().Shards[0].UpdatesPerSec; got <= 0 {
		t.Fatalf("pre-sample poll (lifetime average) = %v, want > 0", got)
	}
	// One sample: still the lifetime average, now frozen at the cut — and
	// repeated polls must agree exactly (a pure read).
	svc.sampleOnce(time.Now())
	first := svc.Metrics().Shards[0].UpdatesPerSec
	if first <= 0 {
		t.Fatalf("one-sample rate = %v, want > 0", first)
	}
	if again := svc.Metrics().Shards[0].UpdatesPerSec; again != first {
		t.Fatalf("re-poll changed the rate: %v then %v", first, again)
	}
	// Stalled window: no updates between two cuts.
	svc.sampleOnce(time.Now())
	if got := svc.Metrics().Shards[0].UpdatesPerSec; got != 0 {
		t.Fatalf("stalled-window sample = %v, want 0", got)
	}
	// Rate recovers once updates flow through a window again.
	apply(core.Update{Kind: core.InsertEdge, U: 0, V: 7})
	svc.sampleOnce(time.Now())
	if got := svc.Metrics().Shards[0].UpdatesPerSec; got <= 0 {
		t.Fatalf("active-window sample = %v, want > 0", got)
	}
}

// TestMetricsConcurrentPollers pins the multi-poller fix: two goroutines
// polling Metrics concurrently over a fixed sampler window must observe
// exactly the same rate and queue high-water on every poll — under the old
// read-once windows, each poll consumed the window and concurrent pollers
// clobbered each other's baselines.
func TestMetricsConcurrentPollers(t *testing.T) {
	svc := New(Config{Shards: 1, SampleInterval: time.Hour})
	defer svc.Close()
	if _, err := svc.CreateGraph("g", graph.Path(8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		kind := core.InsertEdge
		if i%2 == 1 {
			kind = core.DeleteEdge
		}
		fut, err := svc.Apply("g", core.Update{Kind: kind, U: 0, V: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Fix the window: two cuts one second apart (manual timestamps make the
	// expected rate exact — 6 updates in the first window, 0 since).
	t0 := time.Now()
	svc.sampleOnce(t0)
	svc.sampleOnce(t0.Add(time.Second))

	const pollers, polls = 2, 50
	rates := make([][]float64, pollers)
	hwms := make([][]int, pollers)
	var wg sync.WaitGroup
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < polls; i++ {
				m := svc.Metrics().Shards[0]
				rates[p] = append(rates[p], m.UpdatesPerSec)
				hwms[p] = append(hwms[p], m.QueueHighWater)
			}
		}(p)
	}
	wg.Wait()
	for p := 0; p < pollers; p++ {
		for i := 0; i < polls; i++ {
			if rates[p][i] != rates[0][0] {
				t.Fatalf("poller %d poll %d saw rate %v, poller 0 saw %v", p, i, rates[p][i], rates[0][0])
			}
			if hwms[p][i] != hwms[0][0] {
				t.Fatalf("poller %d poll %d saw high-water %d, poller 0 saw %d", p, i, hwms[p][i], hwms[0][0])
			}
		}
	}
	if rates[0][0] != 0 {
		t.Fatalf("rate over the quiet second window = %v, want 0", rates[0][0])
	}
}

// TestServiceIncrementalQuerySoak is the serving-layer soak of the
// per-update maintenance path: reader goroutines issue snapquery lookups
// (and verify retained snapshots) against rotating versions while the
// shard loop installs new trees underneath them. Run with -race (CI does),
// this pins that maintenance mutates nothing a published snapshot or index
// reads. The service's SubtreeDFS maintainers keep no D; each must end
// without one and pass its own CheckSynced.
func TestServiceIncrementalQuerySoak(t *testing.T) {
	svc := New(Config{Shards: 2})
	defer svc.Close()
	ids := []GraphID{"soak-0", "soak-1"}
	const n = 48
	for i, id := range ids {
		rng := rand.New(rand.NewSource(int64(300 + i)))
		if _, err := svc.CreateGraph(id, graph.GnpConnected(n, 3.0/n, rng)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(len(ids))]
				h, err := svc.Query(id)
				if err != nil {
					t.Error(err)
					return
				}
				tr, pseudo := h.Tree(), h.PseudoRoot()
				var live []int
				for _, v := range tr.Vertices() {
					if v != pseudo {
						live = append(live, v)
					}
				}
				if len(live) < 2 {
					continue
				}
				u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
				if _, err := h.LCA(u, v); err != nil {
					t.Errorf("LCA(%d,%d): %v", u, v, err)
					return
				}
				if _, err := h.SubtreeAgg(u); err != nil {
					t.Errorf("SubtreeAgg(%d): %v", u, err)
					return
				}
				if rng.Intn(16) == 0 {
					snap, err := svc.Snapshot(id)
					if err != nil {
						t.Error(err)
						return
					}
					if err := snap.Verify(); err != nil {
						t.Errorf("snapshot verify: %v", err)
						return
					}
				}
			}
		}(int64(400 + r))
	}
	// Writer: a random mixed stream against both graphs, on the caller's
	// goroutine so the soak has a bounded update count.
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 300; i++ {
		id := ids[rng.Intn(len(ids))]
		snap, err := svc.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		var u core.Update
		switch rng.Intn(4) {
		case 0:
			e, ok := graph.RandomEdgeNotIn(snap.Graph, rng)
			if !ok {
				continue
			}
			u = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
		case 1:
			e, ok := graph.RandomExistingEdge(snap.Graph, rng)
			if !ok {
				continue
			}
			u = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
		case 2:
			var nbrs []int
			for v := 0; v < snap.Graph.NumVertexSlots(); v++ {
				if snap.Graph.IsVertex(v) && rng.Float64() < 0.1 {
					nbrs = append(nbrs, v)
				}
			}
			u = core.Update{Kind: core.InsertVertex, Neighbors: nbrs}
		default:
			v := rng.Intn(snap.Graph.NumVertexSlots())
			if !snap.Graph.IsVertex(v) || snap.Graph.NumVertices() < 8 {
				continue
			}
			u = core.Update{Kind: core.DeleteVertex, U: v}
		}
		fut, err := svc.Apply(id, u)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatalf("update %d (%v) rejected: %v", i, u.Kind, err)
		}
	}
	close(stop)
	wg.Wait()
	// The maintainers stayed on the D-free path (in-package peek).
	for _, id := range ids {
		gs := svc.shardFor(id).lookup(id)
		if gs == nil {
			t.Fatalf("graph %q disappeared", id)
		}
		if gs.dd.D() != nil {
			t.Fatalf("graph %q's maintainer built a D", id)
		}
		if err := gs.dd.CheckSynced(); err != nil {
			t.Fatalf("graph %q: %v", id, err)
		}
	}
}
