package distributed

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/verify"
)

func TestNetworkBFSCosts(t *testing.T) {
	nw := NewNetwork(4)
	g := graph.Path(9)
	nw.BuildBFS(g)
	if nw.Depth() != 8 {
		t.Fatalf("path BFS depth=%d want 8", nw.Depth())
	}
	if nw.Rounds != 9 {
		t.Fatalf("BFS rounds=%d want depth+1=9", nw.Rounds)
	}
	if nw.Messages != int64(2*g.NumEdges()) {
		t.Fatalf("BFS messages=%d want 2m=%d", nw.Messages, 2*g.NumEdges())
	}
}

func TestNetworkBFSForest(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 3, V: 4}})
	nw := NewNetwork(2)
	nw.BuildBFS(g)
	if nw.Depth() != 1 {
		t.Fatalf("forest depth=%d want 1", nw.Depth())
	}
	if nw.treeEdges != 2 {
		t.Fatalf("treeEdges=%d want 2", nw.treeEdges)
	}
}

func TestExchangePipelining(t *testing.T) {
	// depth d, chunks c: one exchange = 2(d + c) rounds (up then down),
	// 2·treeEdges·c messages.
	nw := NewNetwork(4)
	g := graph.Path(11) // depth 10, 10 tree edges
	nw.BuildBFS(g)
	r0, m0 := nw.Rounds, nw.Messages
	rounds := nw.Exchange(40) // 40 words, B=4 -> 10 chunks
	wantRounds := 2 * (10 + 10)
	if rounds != wantRounds {
		t.Fatalf("exchange rounds=%d want %d", rounds, wantRounds)
	}
	if nw.Rounds-r0 != int64(wantRounds) {
		t.Fatalf("rounds accumulator off")
	}
	if nw.Messages-m0 != int64(2*10*10) {
		t.Fatalf("exchange messages=%d want 200", nw.Messages-m0)
	}
	if nw.Exchange(0) != 0 {
		t.Fatal("empty exchange should be free")
	}
}

func TestMaintainerRandomSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(20)
		g := graph.GnpConnected(n, 3.0/float64(n), rng)
		m := New(g, 0)
		for step := 0; step < 15; step++ {
			var u core.Update
			ok := false
			if rng.Intn(2) == 0 {
				if e, has := graph.RandomEdgeNotIn(m.Core().Graph(), rng); has {
					u, ok = core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}, true
				}
			} else {
				if e, has := graph.RandomExistingEdge(m.Core().Graph(), rng); has {
					u, ok = core.Update{Kind: core.DeleteEdge, U: e.U, V: e.V}, true
				}
			}
			if !ok {
				continue
			}
			if _, err := m.Apply(u); err != nil {
				t.Fatal(err)
			}
			if err := verify.DFSForest(m.Core().Graph(), m.Core().Tree(), m.Core().PseudoRoot()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if m.LastRounds() <= 0 || m.LastMessages() <= 0 {
				t.Fatalf("no network activity recorded for %v", u.Kind)
			}
		}
	}
}

func TestRoundsWithinTheorem16(t *testing.T) {
	// Rounds per update must stay within c·D·log²n (plus the BFS rebuild).
	rng := rand.New(rand.NewSource(163))
	g := graph.CycleOfCliques(8, 8) // n=64, moderate diameter
	d := g.Diameter()
	m := New(g, 0)
	n := g.NumVertices()
	lg := int(pram.Log2Ceil(n))
	var worst int64
	for step := 0; step < 25; step++ {
		if e, ok := graph.RandomEdgeNotIn(m.Core().Graph(), rng); ok {
			if _, err := m.Apply(core.Update{Kind: core.InsertEdge, U: e.U, V: e.V}); err != nil {
				t.Fatal(err)
			}
			if m.LastRounds() > worst {
				worst = m.LastRounds()
			}
		}
	}
	budget := int64(20 * (d + 1) * lg * lg)
	if worst > budget {
		t.Fatalf("worst rounds %d > budget %d (D=%d, log²n=%d)", worst, budget, d, lg*lg)
	}
}

func TestNodeMemoryAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	g := graph.GnpConnected(50, 0.1, rng)
	m := New(g, 0)
	if w := m.MaxNodeWords(); w > 4*(50+65) {
		t.Fatalf("per-node memory %d words not O(n)", w)
	}
}

func TestMessageSizeChoice(t *testing.T) {
	// Default B should be about n/D.
	g := graph.Path(32) // D=31
	m := New(g, 0)
	if m.Network().B < 1 || m.Network().B > 2 {
		t.Fatalf("B=%d want ~n/D=1", m.Network().B)
	}
	g2 := graph.Complete(16) // D=1
	m2 := New(g2, 0)
	if m2.Network().B != 16 {
		t.Fatalf("B=%d want n/D=16", m2.Network().B)
	}
}
