package service

import (
	"bytes"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenMetrics builds a fully-populated synthetic Metrics so the golden
// exposition covers every family writePromMetrics can emit, including the
// WAL block, with deterministic values.
func goldenMetrics() Metrics {
	histOf := func(vals ...int64) obs.HistSnapshot {
		var h obs.Histogram
		for _, v := range vals {
			h.RecordValue(v)
		}
		return h.Snapshot()
	}
	m := Metrics{
		Shards: []ShardMetrics{
			{
				Shard: 0, Graphs: 2, QueueDepth: 1, QueueCap: 256, QueueHighWater: 7,
				Updates: 120, Rejected: 3, UpdatesPerSec: 12.5,
				OldestSnapshotAge: 250 * time.Millisecond,
				PRAMDepth:         900, PRAMWork: 40000, PRAMProcs: 512,
				MigrationsIn: 1, MigrationsOut: 2,
			},
			{
				Shard: 1, Graphs: 1, QueueDepth: 0, QueueCap: 256, QueueHighWater: 2,
				Updates: 30, Rejected: 0, UpdatesPerSec: 2,
				PRAMDepth: 100, PRAMWork: 2000, PRAMProcs: 64,
			},
		},
		Graphs: 3, Updates: 150, Rejected: 3, UpdatesPerSec: 14.5,
		ApplyHist:       histOf(120_000, 250_000, 4_000_000),
		MailboxWaitHist: histOf(800, 1500),
		PublishHist:     histOf(2_000, 3_000),
		BatchSizeHist:   histOf(1, 4, 16),
		Stages: StageTimes{
			Wait: 2 * time.Millisecond, Plan: time.Millisecond,
			Engine: 3 * time.Millisecond, DMaint: 4 * time.Millisecond,
			Publish: 500 * time.Microsecond,
		},
		IndexCacheHits: 40, IndexCacheMisses: 9,
		IndexBuilds: 12, IndexBuildTime: 6 * time.Millisecond,
		IndexBuildHist:   histOf(400_000, 600_000),
		QueryResolveHist: histOf(700, 900, 1_200),

		Migrations: 3, MigrationFailures: 1, RoutedGraphs: 2,
		MigrationPauseHist: histOf(2_500_000, 4_000_000),

		WALEnabled: true, WALRecovering: false,
		WALRecoveryGraphsTotal: 3, WALRecoveryGraphsDone: 3,
		WALAppends: 150, WALAppendBytes: 61_440, WALSyncs: 20,
		WALReplayed: 17, WALSkipped: 4, WALCheckpoints: 6,
		WALTornTails: 1, WALOrphanRecords: 2,
		WALAppendHist: histOf(5_000, 9_000),
		WALSyncHist:   histOf(1_200_000),
		WALReplayHist: histOf(150_000, 180_000),
	}
	return m
}

// TestPromExpositionGolden pins the exact Prometheus text exposition of a
// synthetic Metrics. Regenerate with: go test ./internal/service -run
// PromExpositionGolden -update
func TestPromExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writePromMetrics(&buf, goldenMetrics()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from %s (run with -update after intentional changes)\ngot:\n%s", golden, buf.String())
	}
	lintProm(t, buf.String())
}

// lintProm validates prometheus text-format invariants over an exposition:
// valid metric identifiers, one # TYPE per family, every sample line
// belonging to a declared family (histogram suffixes included), counters
// ending in _total, and parseable sample lines.
func lintProm(t *testing.T, text string) {
	t.Helper()
	families := map[string]string{} // name -> type
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := parts[2], parts[3]
			if !obs.ValidPromName(name) {
				t.Fatalf("line %d: invalid family name %q", ln+1, name)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate family %q", ln+1, name)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Fatalf("line %d: counter %q does not end in _total", ln+1, name)
			}
			families[name] = typ
			continue
		}
		// Sample line: name{labels} value
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !obs.ValidPromName(name) {
			t.Fatalf("line %d: invalid metric name %q", ln+1, name)
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && families[b] == "histogram" {
				base = b
				break
			}
		}
		typ, ok := families[base]
		if !ok {
			t.Fatalf("line %d: sample %q has no preceding family", ln+1, name)
		}
		if typ == "histogram" && base == name {
			t.Fatalf("line %d: bare sample %q for a histogram family", ln+1, name)
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("line %d: no value: %q", ln+1, line)
		}
	}
	if len(families) == 0 {
		t.Fatal("no families in exposition")
	}
}

// TestPromEndpointLive scrapes /debug/metrics on a live service like a
// Prometheus server would, checking the content type, that the exposition
// lints clean, and that the load actually driven shows up in the counters.
func TestPromEndpointLive(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	rng := rand.New(rand.NewSource(21))
	g := graph.GnpConnected(128, 4.0/128, rng)
	mustCreate(t, s, "prom", g)
	drive(t, s, "prom", g, rng, 20)
	if h, err := s.Query("prom"); err != nil {
		t.Fatal(err)
	} else if _, err := h.LCA(0, 1); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type %q, want %q", ct, obs.PromContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	lintProm(t, text)
	for _, want := range []string{
		"# TYPE dfs_updates_total counter",
		`dfs_updates_total{shard="0"}`,
		"# TYPE dfs_apply_seconds histogram",
		"dfs_apply_seconds_bucket{le=\"+Inf\"}",
		"dfs_apply_seconds_count",
		"# TYPE dfs_stage_seconds_total counter",
		`dfs_stage_seconds_total{stage="engine"}`,
		"# TYPE dfs_index_cache_hits_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q\n%s", want, text)
		}
	}
	// 20 updates were applied: the counters must reflect them.
	if !strings.Contains(text, "dfs_graphs 1\n") {
		t.Fatal("dfs_graphs != 1")
	}
}
