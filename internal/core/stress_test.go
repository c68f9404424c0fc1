package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify"
)

// TestStressManySeeds sweeps 30 seeds of long mixed sequences asserting the
// C1/C2 machinery never needs the generic fallback (the A1 guards in
// internal/reroot/heavy.go were added for a case this test family caught).
func TestStressManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	for seed := int64(300); seed < 330; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + int(seed%3)*64
		g := graph.GnpConnected(n, 4.0/float64(n), rng)
		dd := New(g, Options{RebuildD: true, Executor: Parallel})
		for step := 0; step < 150; step++ {
			if op := randomUpdate(t, dd, rng); op == "" {
				continue
			}
			s := dd.LastStats()
			if s.GenericFall+s.Violations > 0 {
				t.Fatalf("seed %d step %d: %+v", seed, step, s)
			}
			if step%25 == 0 {
				if err := verify.DFSForest(dd.Graph(), dd.Tree(), dd.PseudoRoot()); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if err := verify.DFSForest(dd.Graph(), dd.Tree(), dd.PseudoRoot()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
