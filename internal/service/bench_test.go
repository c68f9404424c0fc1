package service

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pram"
)

// BenchmarkPublish isolates the snapshot-publication step of the shard
// update loop — the work between "the maintainer finished an update" and
// "readers can see it". With the persistent adjacency structure this is a
// pointer grab plus one small Snapshot struct, so ns/op and allocs/op must
// stay flat as n (and m) grow by two orders of magnitude; any per-edge or
// per-vertex work re-introduced into the publish path shows up here as
// linear growth. Run by the CI bench-smoke step with -benchtime=1x.
func BenchmarkPublish(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.GnpConnected(n, 4.0/float64(n), rng)
			sh := &shard{mach: pram.NewMachine(2*g.NumEdges() + g.NumVertexSlots() + 1)}
			gs := &graphState{dd: core.New(g, core.Options{
				RebuildD: true,
				Headroom: 64,
				Machine:  sh.mach,
			})}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.publish("bench", gs)
			}
		})
	}
}

// BenchmarkRoutingLookup prices the routing-table read path (shardFor):
// every read and every submit resolves its shard through it, so it must
// stay allocation-free and flat whether the table is empty (pure FNV hash,
// the pre-refactor behavior), hit (the graph was migrated), or missed (the
// table is populated but this ID falls through to the hash default). Run by
// the CI bench-smoke step with -benchtime=1x.
func BenchmarkRoutingLookup(b *testing.B) {
	s := New(Config{Shards: 8})
	defer s.Close()
	routed := make([]GraphID, 64)
	for i := range routed {
		routed[i] = GraphID(fmt.Sprintf("routed-%d", i))
	}
	miss := GraphID("unrouted-tenant")
	b.Run("empty-table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.shardFor(routed[i%len(routed)]) == nil {
				b.Fatal("nil shard")
			}
		}
	})
	// Populate the table directly (routing entries only; no graphs needed).
	s.routeMu.Lock()
	for i, id := range routed {
		if sh := s.shards[(shardIndex(id, 8)+1+i%7)%8]; sh != s.defaultShard(id) {
			s.setRouteLocked(id, sh)
		}
	}
	s.routeMu.Unlock()
	b.Run("table-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.shardFor(routed[i%len(routed)]) == nil {
				b.Fatal("nil shard")
			}
		}
	})
	b.Run("table-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.shardFor(miss) == nil {
				b.Fatal("nil shard")
			}
		}
	})
}

// BenchmarkMigration measures one live handoff end to end — freeze,
// install, route flip, retire — by ping-ponging one graph between two
// shards (no WAL, so the cost is the protocol itself, not checkpoint I/O).
// ns/op is the full coordinator round trip, an upper bound on the write
// pause a tenant sees per handoff. Run by the CI bench-smoke step with
// -benchtime=1x.
func BenchmarkMigration(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := New(Config{Shards: 2})
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.GnpConnected(n, 4.0/float64(n), rng)
			id := GraphID("ping")
			if _, err := s.CreateGraph(id, g); err != nil {
				b.Fatal(err)
			}
			home := shardIndex(id, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.MigrateGraph(id, (home+1+i)%2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyRound prices one mailbox round on the write path — submit,
// apply, publish, resolve — on one graph that toggles a back edge, so the
// DFS tree never changes and the round's own overhead dominates.
// entries=1 is a round of one sent by Apply, entries=4 one ApplyBatch
// round; an op is one round, awaited. Run by the CI bench-smoke step with
// -benchtime=100x.
func BenchmarkApplyRound(b *testing.B) {
	ins := core.Update{Kind: core.InsertEdge, U: 0, V: 2} // on a path: a back edge
	del := core.Update{Kind: core.DeleteEdge, U: 0, V: 2}
	for _, entries := range []int{1, 4} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			s := New(Config{Shards: 1})
			defer s.Close()
			if _, err := s.CreateGraph("g", graph.Path(64)); err != nil {
				b.Fatal(err)
			}
			items := make([]BatchItem, entries)
			for i := range items {
				items[i] = BatchItem{Graph: "g", Update: ins}
				if i%2 == 1 {
					items[i].Update = del
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if entries == 1 {
					u := ins
					if i%2 == 1 {
						u = del
					}
					fut, err := s.Apply("g", u)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := fut.Wait(); err != nil {
						b.Fatal(err)
					}
					continue
				}
				futs, err := s.ApplyBatch(items)
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range futs {
					if _, _, err := f.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
