package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// exactCounts are the per-layer metrics that count work rather than time
// it. The traced run's phases have fixed sizes, so for one seed they must
// repeat exactly.
var exactCounts = []string{
	"pram.depth_per_update", "pram.work_per_update",
	"reroot.rounds_per_update", "reroot.traversals_per_update", "reroot.moved_per_update",
	"dstruct.walk_queries_per_update", "dstruct.search_steps_per_update",
	"dstruct.incremental_frac", "dstruct.size_mwords",
	"wal.syncs_per_update", "wal.bytes_per_update", "wal.checkpoints", "wal.replayed_records",
	"snapquery.patch_frac", "snapquery.fallbacks", "snapquery.cache_hit_frac",
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// readDeclared loads the metric lists of the benchmark definition at the
// root of the checkout.
func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read benchmark definition: %v", err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("parse benchmark definition: %v", err)
	}
	return d
}

func checkNames(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("declared metric %s not reported", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: unit %q, declared %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, workdir: t.TempDir(), tiny: true}
	res, oracleErr, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if oracleErr != nil || !res.Correct {
		t.Fatalf("oracle failed: %v", oracleErr)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	return res
}

// TestTinyRunsRepeat runs each workload at test size: once untraced, and
// twice traced with one seed. Every oracle must pass, every declared
// metric must be reported with its unit, every end-to-end metric must be
// positive, the exact counts must repeat, and the layers a workload does
// not use must read zero.
func TestTinyRunsRepeat(t *testing.T) {
	decl := readDeclared(t)
	for _, w := range []string{"churn", "durable", "read-mix"} {
		t.Run(w, func(t *testing.T) {
			e2e := tinyRun(t, w, false)
			checkNames(t, e2e.Metrics, decl.EndToEnd)
			for name, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}
			a, b := tinyRun(t, w, true), tinyRun(t, w, true)
			checkNames(t, a.Metrics, decl.PerLayer)
			for _, name := range exactCounts {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v with one seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			for name, m := range a.Metrics {
				idle := (w != "durable" && strings.HasPrefix(name, "wal.")) ||
					(w != "read-mix" && (strings.HasPrefix(name, "snapquery.") || strings.HasPrefix(name, "query.")))
				if idle && m.Value != 0 {
					t.Errorf("%s = %v on %s, a workload that does not use the layer", name, m.Value, w)
				}
			}
			if w == "durable" && a.Metrics["reroot.traversals_per_update"].Value != 0 {
				t.Errorf("durable reroot.traversals_per_update = %v, want 0: a back-edge toggle changed the tree",
					a.Metrics["reroot.traversals_per_update"].Value)
			}
		})
	}
}
