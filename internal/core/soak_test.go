package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/verify"
)

// TestSoakLongSequence runs a long mixed update sequence at a moderate size,
// verifying the tree after every update and asserting the round bound and
// clean scheduler stats throughout. Skipped with -short.
func TestSoakLongSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(239))
	g := graph.GnpConnected(256, 3.0/256.0, rng)
	dd := New(g, Options{RebuildD: true, Executor: Parallel})
	worstRounds := 0
	for step := 0; step < 400; step++ {
		if op := randomUpdate(t, dd, rng); op == "" {
			continue
		}
		if err := verify.DFSForest(dd.Graph(), dd.Tree(), dd.PseudoRoot()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		s := dd.LastStats()
		if s.GenericFall+s.Violations+s.HeavySpecial > 0 {
			t.Fatalf("step %d: dirty stats %+v", step, s)
		}
		if s.Rounds > worstRounds {
			worstRounds = s.Rounds
		}
	}
	n := dd.Graph().NumVertices()
	lg := int(pram.Log2Ceil(n + 1))
	if worstRounds > 4*lg*lg {
		t.Fatalf("worst rounds %d > 4·log²n = %d (n=%d)", worstRounds, 4*lg*lg, n)
	}
}
