package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestTenantMetricsAttribution pins per-graph cost attribution end to end:
// update counts (applied and rejected) land on the right tenant, apply time
// accumulates, index builds performed by reader goroutines are charged to
// the graph that owns the index, and an unknown graph errors.
func TestTenantMetricsAttribution(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	mustCreate(t, s, "a", graph.Path(16))
	mustCreate(t, s, "b", graph.Path(16))

	apply := func(id GraphID, u core.Update) error {
		fut, err := s.Apply(id, u)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = fut.Wait()
		return err
	}
	for i := 0; i < 5; i++ {
		kind := core.InsertEdge
		if i%2 == 1 {
			kind = core.DeleteEdge
		}
		if err := apply("a", core.Update{Kind: kind, U: 0, V: 15}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		kind := core.InsertEdge
		if i%2 == 1 {
			kind = core.DeleteEdge
		}
		if err := apply("b", core.Update{Kind: kind, U: 2, V: 9}); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate insert is rejected by the maintainer — it must count
	// against "a" as rejected work, not applied.
	if err := apply("a", core.Update{Kind: core.InsertEdge, U: 0, V: 1}); err == nil {
		t.Fatal("duplicate edge insert was not rejected")
	}

	// Index work from the read path is charged to "a" only. IsArticulation
	// builds the biconnectivity index; LCA and SubtreeAgg would build
	// nothing, since they read the snapshot tree.
	h, err := s.Query("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.IsArticulation(5); err != nil {
		t.Fatal(err)
	}

	ta, err := s.TenantMetrics("a")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.TenantMetrics("b")
	if err != nil {
		t.Fatal(err)
	}
	if ta.Applied != 5 || ta.Rejected != 1 {
		t.Fatalf("a: applied %d rejected %d, want 5/1", ta.Applied, ta.Rejected)
	}
	if tb.Applied != 3 || tb.Rejected != 0 {
		t.Fatalf("b: applied %d rejected %d, want 3/0", tb.Applied, tb.Rejected)
	}
	if ta.ApplyTime <= 0 {
		t.Fatalf("a: no apply time attributed: %v", ta.ApplyTime)
	}
	if ta.ApplyTime < ta.EngineTime || ta.ApplyTime < ta.DMaintTime {
		t.Fatalf("a: stage components exceed apply time: %+v", ta.TenantCounters)
	}
	if ta.IndexBuilds == 0 || ta.IndexTime <= 0 {
		t.Fatalf("a: index work not attributed: builds %d time %v", ta.IndexBuilds, ta.IndexTime)
	}
	if tb.IndexBuilds != 0 {
		t.Fatalf("b: charged %d index builds it never caused", tb.IndexBuilds)
	}
	if ta.Version == 0 {
		t.Fatal("a: version not reported")
	}
	if _, err := s.TenantMetrics("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph error = %v", err)
	}
}

// TestTenantWALByteAttribution: under durability, every tenant's WALBytes
// counts its own appended record frames, and the per-tenant bytes sum to
// the shard logs' total appended bytes exactly (the shard loop is the only
// appender, so the attribution deltas partition the total).
func TestTenantWALByteAttribution(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.WaitRecovered()
	ids := []GraphID{"wa", "wb", "wc"}
	for _, id := range ids {
		mustCreate(t, s, id, graph.Path(12))
	}
	for i, id := range ids {
		for j := 0; j <= i; j++ {
			kind := core.InsertEdge
			if j%2 == 1 {
				kind = core.DeleteEdge
			}
			fut, err := s.Apply(id, core.Update{Kind: kind, U: 0, V: 11})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sum uint64
	for _, id := range ids {
		tm, err := s.TenantMetrics(id)
		if err != nil {
			t.Fatal(err)
		}
		if tm.WALBytes == 0 {
			t.Fatalf("%s: no WAL bytes attributed", id)
		}
		sum += tm.WALBytes
	}
	if total := s.Metrics().WALAppendBytes; sum != total {
		t.Fatalf("per-tenant WAL bytes sum %d != log total %d", sum, total)
	}
}

// TestWALRecoveryProgress pins the recovery gauges: a reopened directory
// reports the routed graph count, and done == total once recovery finishes.
func TestWALRecoveryProgress(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id := GraphID(fmt.Sprintf("rec%d", i))
		mustCreate(t, s, id, graph.Path(8))
		fut, err := s.Apply(id, core.Update{Kind: core.InsertEdge, U: 0, V: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Shards: 2, WAL: &WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.WaitRecovered()
	m := s2.Metrics()
	if m.WALRecoveryGraphsTotal != 3 {
		t.Fatalf("recovery graphs total = %d, want 3", m.WALRecoveryGraphsTotal)
	}
	if m.WALRecoveryGraphsDone != m.WALRecoveryGraphsTotal {
		t.Fatalf("recovery done %d != total %d after WaitRecovered",
			m.WALRecoveryGraphsDone, m.WALRecoveryGraphsTotal)
	}
}

// TestHotGraphsSkewedLoad drives a deliberately skewed multi-tenant load
// and checks the cost ranking: the tenant that received most of the work
// must top HotGraphs and the /debug/service/tenants endpoint, with its
// exact meter attached.
func TestHotGraphsSkewedLoad(t *testing.T) {
	s := New(Config{Shards: 2, HotTenants: 8})
	defer s.Close()
	rng := rand.New(rand.NewSource(31))
	hotG := graph.GnpConnected(256, 4.0/256, rng)
	mustCreate(t, s, "hot", hotG)
	for i := 0; i < 10; i++ {
		mustCreate(t, s, GraphID(fmt.Sprintf("cold%d", i)), graph.Path(6))
	}
	drive(t, s, "hot", hotG, rng, 60)
	for i := 0; i < 10; i++ {
		id := GraphID(fmt.Sprintf("cold%d", i))
		fut, err := s.Apply(id, core.Update{Kind: core.InsertEdge, U: 0, V: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	hg := s.HotGraphs(3)
	if len(hg) != 3 {
		t.Fatalf("HotGraphs(3) returned %d entries", len(hg))
	}
	if hg[0].Graph != "hot" {
		t.Fatalf("hottest graph = %q, want \"hot\" (ranking %+v)", hg[0].Graph, hg)
	}
	if hg[0].EstCost < hg[1].EstCost {
		t.Fatal("ranking not descending by estimated cost")
	}
	if hg[0].Applied != 60 {
		t.Fatalf("hot tenant's exact meter reports %d applied, want 60", hg[0].Applied)
	}
	// The sketch estimate brackets the exact meter: ApplyTime within
	// [EstCost-EstErr, EstCost].
	exact := uint64(hg[0].ApplyTime)
	if exact > hg[0].EstCost || exact < hg[0].EstCost-hg[0].EstErr {
		t.Fatalf("exact apply %d outside sketch bracket [%d, %d]",
			exact, hg[0].EstCost-hg[0].EstErr, hg[0].EstCost)
	}

	// The endpoint serves the same ranking.
	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/service/tenants?k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc struct {
		Now time.Time `json:"now"`
		Hot []struct {
			Graph   string `json:"graph"`
			Applied uint64 `json:"applied"`
			EstCost uint64 `json:"est_cost_ns"`
		} `json:"hot"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Hot) != 3 || doc.Hot[0].Graph != "hot" || doc.Hot[0].Applied != 60 {
		t.Fatalf("/debug/service/tenants payload wrong: %+v", doc.Hot)
	}

	// Dropping the hot tenant frees its sketch slot and removes it from the
	// ranking.
	if err := s.DropGraph("hot"); err != nil {
		t.Fatal(err)
	}
	for _, h := range s.HotGraphs(16) {
		if h.Graph == "hot" {
			t.Fatal("dropped graph still ranked")
		}
	}
}

// TestSamplerLifecycle pins the sampler goroutine's lifecycle: it ticks
// while the service runs (points appear in the ring) and Close stops it —
// the done channel closes and the ring freezes.
func TestSamplerLifecycle(t *testing.T) {
	s := New(Config{Shards: 1, SampleInterval: time.Millisecond})
	if _, err := s.CreateGraph("g", graph.Path(4)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.shards[0].series.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampler produced no points in 2s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.samplerDone:
	default:
		t.Fatal("sampler goroutine still running after Close")
	}
	n := s.shards[0].series.Len()
	time.Sleep(5 * time.Millisecond)
	if got := s.shards[0].series.Len(); got != n {
		t.Fatalf("ring grew from %d to %d after Close", n, got)
	}
}

// TestHistoryEndpoint drives updates across two manually-cut windows and
// checks /debug/service/history: per-shard series, oldest-first points,
// and a positive update rate in the window that saw traffic.
func TestHistoryEndpoint(t *testing.T) {
	s := New(Config{Shards: 1, SampleInterval: time.Hour, SampleWindows: 16})
	defer s.Close()
	if _, err := s.CreateGraph("g", graph.Path(8)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		kind := core.InsertEdge
		if i%2 == 1 {
			kind = core.DeleteEdge
		}
		fut, err := s.Apply("g", core.Update{Kind: kind, U: 0, V: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.sampleOnce(t0.Add(time.Second))
	s.sampleOnce(t0.Add(2 * time.Second))

	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/service/history")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var h History
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Windows != 16 || len(h.Shards) != 1 {
		t.Fatalf("history shape: windows %d shards %d", h.Windows, len(h.Shards))
	}
	pts := h.Shards[0].Points
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if !pts[0].At.Before(pts[1].At) {
		t.Fatal("points not oldest-first")
	}
	if pts[0].UpdatesPerSec <= 0 {
		t.Fatalf("first window rate = %v, want > 0 (4 updates landed in it)", pts[0].UpdatesPerSec)
	}
	if pts[1].UpdatesPerSec != 0 {
		t.Fatalf("quiet window rate = %v, want 0", pts[1].UpdatesPerSec)
	}
	if pts[0].ApplyP99 <= 0 {
		t.Fatalf("first window apply p99 = %v, want > 0", pts[0].ApplyP99)
	}
}

// TestObservabilityRaceSoak races every observability consumer at once
// (run under -race in CI): writers applying updates, the real sampler on a
// tight tick, two Metrics pollers, a Prometheus scraper, and tenants and
// history pollers. Pins that the pure-read surfaces never race the write
// path or each other.
func TestObservabilityRaceSoak(t *testing.T) {
	s := New(Config{Shards: 2, SampleInterval: time.Millisecond})
	defer s.Close()
	ids := []GraphID{"ra", "rb", "rc"}
	for i, id := range ids {
		rng := rand.New(rand.NewSource(int64(500 + i)))
		mustCreate(t, s, id, graph.GnpConnected(64, 3.0/64, rng))
	}
	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	reader := func(f func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		reader(func() {
			m := s.Metrics()
			for _, sm := range m.Shards {
				if sm.UpdatesPerSec < 0 {
					t.Errorf("negative rate %v", sm.UpdatesPerSec)
				}
			}
		})
	}
	scrape := func(path string) func() {
		return func() {
			res, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			res.Body.Close()
			if res.StatusCode != 200 {
				t.Errorf("%s: status %d", path, res.StatusCode)
			}
		}
	}
	reader(scrape("/debug/metrics"))
	reader(scrape("/debug/service/tenants"))
	reader(scrape("/debug/service/history"))
	reader(func() { s.HotGraphs(4) })

	var writers sync.WaitGroup
	for i, id := range ids {
		writers.Add(1)
		go func(id GraphID, seed int64) {
			defer writers.Done()
			wrng := rand.New(rand.NewSource(seed))
			for n := 0; n < 150; n++ {
				snap, err := s.Snapshot(id)
				if err != nil {
					t.Error(err)
					return
				}
				var u core.Update
				if e, ok := graph.RandomEdgeNotIn(snap.Graph, wrng); ok && n%2 == 0 {
					u = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}
				} else if e, ok := graph.RandomExistingEdge(snap.Graph, wrng); ok {
					u = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}
				} else {
					continue
				}
				fut, err := s.Apply(id, u)
				if err != nil {
					t.Error(err)
					return
				}
				fut.Wait() // rejections fine
			}
		}(id, int64(600+i))
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// Attribution really happened under the soak.
	var applied uint64
	for _, id := range ids {
		tm, err := s.TenantMetrics(id)
		if err != nil {
			t.Fatal(err)
		}
		applied += tm.Applied + tm.Rejected
	}
	m := s.Metrics()
	if applied != m.Updates+m.Rejected {
		t.Fatalf("tenant update sum %d != service total %d", applied, m.Updates+m.Rejected)
	}
}
