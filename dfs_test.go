package dfs

import (
	"errors"
	"math/rand"
	"testing"
)

// TestPublicAPIEndToEnd drives every maintainer through the facade, the
// way a downstream user would.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GnpConnected(40, 0.1, rng)

	// Fully dynamic.
	m := NewMaintainer(g)
	if err := Verify(m.Graph(), m.Tree(), m.PseudoRoot()); err != nil {
		t.Fatal(err)
	}
	if e, ok := RandomNonEdge(m.Graph(), rng); ok {
		if err := m.InsertEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if e, ok := RandomEdge(m.Graph(), rng); ok {
		if err := m.DeleteEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.InsertVertex([]int{0, 7}); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteVertex(3); err != nil {
		t.Fatal(err)
	}
	if err := Verify(m.Graph(), m.Tree(), m.PseudoRoot()); err != nil {
		t.Fatal(err)
	}
	if m.Machine().Work() == 0 {
		t.Fatal("no PRAM work accounted")
	}

	// Fault tolerant.
	ft := Preprocess(g, 4)
	res, err := ft.Apply([]Update{
		{Kind: InsertEdge, U: 0, V: 20},
		{Kind: DeleteVertex, U: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Graph, res.Tree, res.PseudoRoot); err != nil {
		t.Fatal(err)
	}

	// Streaming.
	s := NewStreaming(g)
	if err := s.InsertEdge(1, 30); err != nil {
		t.Fatal(err)
	}
	if s.LastScheduledPasses() < 0 {
		t.Fatal("bad pass count")
	}

	// Distributed.
	dm := NewDistributed(g, 0)
	ne, ok := RandomNonEdge(dm.Core().Graph(), rng)
	if !ok {
		t.Fatal("no non-edge available")
	}
	if _, err := dm.Apply(Update{Kind: InsertEdge, U: ne.U, V: ne.V}); err != nil {
		t.Fatal(err)
	}
	if dm.LastRounds() == 0 {
		t.Fatal("no rounds accounted")
	}

	// Static baseline.
	st := StaticDFS(g)
	if err := Verify(g, st, g.NumVertexSlots()); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialBaselineMode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := GnpConnected(48, 0.08, rng)
	seq := NewMaintainerWith(g, Options{RebuildD: true, Executor: Sequential})
	for i := 0; i < 10; i++ {
		if e, ok := RandomNonEdge(seq.Graph(), rng); ok {
			if err := seq.InsertEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := Verify(seq.Graph(), seq.Tree(), seq.PseudoRoot()); err != nil {
		t.Fatal(err)
	}
	if seq.LastStats().Sequential == 0 && seq.LastStats().TotalTraversal > 0 {
		t.Fatal("sequential mode did not use sequential traversals")
	}
}

// TestServiceSentinelErrors pins the exported sentinels: downstream code
// matches them with errors.Is regardless of wrapping.
func TestServiceSentinelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewService(ServiceConfig{Shards: 2})
	g := GnpConnected(12, 0.25, rng)
	if _, err := s.CreateGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateGraph("g", g); !errors.Is(err, ErrGraphExists) {
		t.Fatalf("duplicate create = %v, want dfs.ErrGraphExists", err)
	}
	if _, err := s.Snapshot("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown snapshot = %v, want dfs.ErrUnknownGraph", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply("g", Update{Kind: InsertEdge, U: 0, V: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close = %v, want dfs.ErrClosed", err)
	}
}

// TestServiceDurableFacade round-trips a graph through OpenService with a
// WAL: write, close, reopen, and read the recovered state back.
func TestServiceDurableFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := t.TempDir()
	g := GnpConnected(16, 0.2, rng)

	s, err := OpenService(ServiceConfig{Shards: 2, WAL: &WALConfig{Dir: dir, Policy: WALSyncBatch}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateGraph("g", g); err != nil {
		t.Fatal(err)
	}
	e, ok := RandomNonEdge(g, rng)
	if !ok {
		t.Fatal("no non-edge")
	}
	fut, err := s.Apply("g", Update{Kind: InsertEdge, U: e.U, V: e.V})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenService(ServiceConfig{Shards: 2, WAL: &WALConfig{Dir: dir, Policy: WALSyncBatch}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.WaitRecovered()
	snap, err := s2.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 {
		t.Fatalf("recovered version %d, want 1", snap.Version)
	}
	if !snap.Graph.HasEdge(e.U, e.V) {
		t.Fatal("durably acked edge missing after recovery")
	}
	if err := Verify(snap.Graph, snap.Tree, snap.PseudoRoot); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsExported(t *testing.T) {
	for _, g := range []*Graph{
		PathGraph(5), CycleGraph(5), StarGraph(5), CompleteGraph(5),
		BroomGraph(10, 3), GridGraph(3, 4), CycleOfCliques(3, 4),
	} {
		if g.NumVertices() == 0 {
			t.Fatal("empty generator output")
		}
	}
	g, err := FromEdges(3, []Edge{{U: 0, V: 1}})
	if err != nil || g.NumEdges() != 1 {
		t.Fatal("FromEdges broken")
	}
}
