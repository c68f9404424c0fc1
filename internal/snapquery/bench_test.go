package snapquery

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkSnapshotQuery pins the acceptance contract of the analytics
// engine: the cold path (first reader of a version builds both of its
// indexes) is near-linear work; the published path (first reader of a NEW
// version, whose tree carries its own LCA index) answers the LCA family
// and level ancestors with no index construction at all; and the
// warm path (version cached) does zero index construction — a cache
// lookup plus O(1)/O(log n) reads — and must stay allocation-free (≤1
// alloc) and ≥100× faster than the cold build at n=1e5. Run by the CI
// bench-smoke step with -benchtime=1x.
func BenchmarkSnapshotQuery(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.GnpConnected(n, 4.0/float64(n), rng)
		tr := baseline.StaticDFS(g)
		pseudo := g.NumVertexSlots()

		b.Run(fmt.Sprintf("cold/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := New(g, tr, pseudo)
				h.Warm()
			}
		})

		// First query on a freshly published version: each iteration
		// creates the handle the way the service does, over the
		// maintainer's new tree, and answers LCA and level ancestor
		// queries from the tree's index.
		b.Run(fmt.Sprintf("published/n=%d", n), func(b *testing.B) {
			dd := core.New(g, core.Options{RebuildD: true})
			leaf := -1
			for v := 0; v < n; v++ {
				if dd.Tree().Present(v) && len(dd.Tree().Children(v)) == 0 {
					leaf = v
					break
				}
			}
			if err := dd.DeleteVertex(leaf); err != nil {
				b.Fatal(err)
			}
			g2, t2, ps := dd.Frozen(), dd.Tree(), dd.PseudoRoot()
			us := make([]int, 256)
			vs := make([]int, 256)
			for i := range us {
				for {
					if u := rng.Intn(n); t2.Present(u) {
						us[i] = u
						break
					}
				}
				for {
					if v := rng.Intn(n); t2.Present(v) {
						vs[i] = v
						break
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := New(g2, t2, ps)
				u, v := us[i%256], vs[i%256]
				if _, err := h.LCA(u, v); err != nil {
					b.Fatal(err)
				}
				if _, err := h.KthAncestor(v, 3); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("warm/n=%d", n), func(b *testing.B) {
			c := NewCache(4)
			key := Key{Graph: "bench", Version: 1}
			c.Handle(key, g, tr, pseudo).Warm()
			us := make([]int, 256)
			vs := make([]int, 256)
			for i := range us {
				us[i], vs[i] = rng.Intn(n), rng.Intn(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := c.Handle(key, g, tr, pseudo)
				u, v := us[i%256], vs[i%256]
				if _, err := h.LCA(u, v); err != nil {
					b.Fatal(err)
				}
				if _, err := h.SubtreeAgg(u); err != nil {
					b.Fatal(err)
				}
				if _, err := h.KthAncestor(v, 3); err != nil {
					b.Fatal(err)
				}
				if _, err := h.SameBiconnectedComponent(u, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotQueryColdPerIndex isolates each index's build cost.
func BenchmarkSnapshotQueryColdPerIndex(b *testing.B) {
	const n = 10000
	rng := rand.New(rand.NewSource(n))
	g := graph.GnpConnected(n, 4.0/float64(n), rng)
	tr := baseline.StaticDFS(g)
	pseudo := g.NumVertexSlots()
	for _, bench := range []struct {
		name  string
		touch func(h *Handle)
	}{
		{"agg", func(h *Handle) { h.SubtreeAgg(n / 2) }},
		{"bicon", func(h *Handle) { h.IsArticulation(n / 2) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.touch(New(g, tr, pseudo))
			}
		})
	}
}
