package dfs

// Benchmark harness: one benchmark family per experiment row of DESIGN.md
// (E1–E7). `go test -bench=. -benchmem` regenerates the wall-clock side of
// every table; cmd/dfsbench prints the model-cost side (depth, work,
// passes, rounds). Reported custom metrics:
//
//	rounds/op   — critical-path traversal rounds (Theorem 13's polylog)
//	depth/op    — model PRAM depth charged per update
//	passes/op   — semi-streaming scheduled passes (Theorem 15)
//	netrounds/op— CONGEST rounds (Theorem 16)
//	updates/sec — serving-layer applied-update throughput (E9)

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/dstruct"
	"repro/internal/obs"
	"repro/internal/pram"
)

func sizes() []int { return []int{256, 1024, 4096} }

// bigSizes extends sizes with the 10⁵-vertex instance.
func bigSizes() []int { return append(sizes(), 100000) }

// E1: fully dynamic update vs baselines.

func BenchmarkUpdateParallel(b *testing.B) {
	for _, n := range bigSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := GnpConnected(n, 3.0/float64(n), rng)
			m := NewMaintainerWith(g, Options{RebuildD: true, Executor: Parallel})
			es := newBenchEdges(g)
			var rounds, depth int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d0 := m.Machine().Depth()
				benchUpdate(b, m, es, rng)
				rounds += int64(m.LastStats().Rounds)
				depth += m.Machine().Depth() - d0
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(depth)/float64(b.N), "depth/op")
		})
	}
}

func BenchmarkUpdateSequentialBaseline(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := GnpConnected(n, 3.0/float64(n), rng)
			m := NewMaintainerWith(g, Options{RebuildD: true, Executor: Sequential})
			es := newBenchEdges(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchUpdate(b, m, es, rng)
			}
		})
	}
}

func BenchmarkUpdateStaticRecompute(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := GnpConnected(n, 3.0/float64(n), rng)
			r := baseline.NewRecompute(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e, ok := RandomNonEdge(r.G, rng); ok {
					if err := r.InsertEdge(e.U, e.V); err != nil {
						b.Fatal(err)
					}
				} else if e, ok := RandomEdge(r.G, rng); ok {
					if err := r.DeleteEdge(e.U, e.V); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// benchUpdate alternates insert/delete so the graph stays near its initial
// density across b.N iterations. es mirrors m's edge set.
func benchUpdate(b *testing.B, m *Maintainer, es *benchEdges, rng *rand.Rand) {
	b.Helper()
	if rng.Intn(2) == 0 {
		if e, ok := es.nonEdge(m.Graph(), rng); ok {
			if err := m.InsertEdge(e.U, e.V); err != nil {
				b.Fatal(err)
			}
			es.add(e)
			return
		}
	}
	if len(es.es) > 0 {
		e := es.es[rng.Intn(len(es.es))]
		if err := m.DeleteEdge(e.U, e.V); err != nil {
			b.Fatal(err)
		}
		es.remove(e)
	}
}

// benchEdges mirrors a maintainer's edge set so benchUpdate picks a random
// edge in O(1): RandomEdge copies all m edges per pick, which would be a
// sizable share of a cheap update's measured time.
type benchEdges struct {
	es  []Edge
	pos map[Edge]int // index of each edge in es
}

func newBenchEdges(g *Graph) *benchEdges {
	p := &benchEdges{es: g.Edges(), pos: make(map[Edge]int, g.NumEdges())}
	for i, e := range p.es {
		p.pos[e] = i
	}
	return p
}

func (p *benchEdges) add(e Edge) {
	p.pos[e] = len(p.es)
	p.es = append(p.es, e)
}

// remove swap-removes e.
func (p *benchEdges) remove(e Edge) {
	i, last := p.pos[e], p.es[len(p.es)-1]
	p.es[i], p.pos[last] = last, i
	p.es = p.es[:len(p.es)-1]
	delete(p.pos, e)
}

// nonEdge draws vertex pairs until one is a non-edge of g, which takes a
// draw or two on the sparse benchmark graphs; it gives up after 64.
func (p *benchEdges) nonEdge(g *Graph, rng *rand.Rand) (Edge, bool) {
	n := g.NumVertexSlots()
	for range 64 {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && g.IsVertex(u) && g.IsVertex(v) && !g.HasEdge(u, v) {
			return Edge{U: u, V: v}.Canon(), true
		}
	}
	return Edge{}, false
}

// E2: fault tolerant batches.

func BenchmarkFaultTolerantBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := GnpConnected(2048, 3.0/2048, rng)
	ft := Preprocess(g, 8)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			batches := make([][]Update, 16)
			for i := range batches {
				batches[i] = randomDeleteBatch(g, k, rng)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ft.Apply(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func randomDeleteBatch(g *Graph, k int, rng *rand.Rand) []Update {
	scratch := g
	var batch []Update
	for len(batch) < k {
		if e, ok := RandomEdge(scratch, rng); ok {
			if ng, err := scratch.DeleteEdge(e.U, e.V); err == nil {
				scratch = ng
				batch = append(batch, Update{Kind: DeleteEdge, U: e.U, V: e.V})
			}
		}
	}
	return batch
}

// E3: semi-streaming updates.

func BenchmarkStreamingUpdate(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			g := GnpConnected(n, 3.0/float64(n), rng)
			s := NewStreaming(g)
			mirror := g
			var passes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e, ok := RandomNonEdge(mirror, rng); ok && i%2 == 0 {
					if ng, err := mirror.InsertEdge(e.U, e.V); err == nil {
						mirror = ng
						if err := s.InsertEdge(e.U, e.V); err != nil {
							b.Fatal(err)
						}
					}
				} else if e, ok := RandomEdge(mirror, rng); ok {
					if ng, err := mirror.DeleteEdge(e.U, e.V); err == nil {
						mirror = ng
						if err := s.DeleteEdge(e.U, e.V); err != nil {
							b.Fatal(err)
						}
					}
				}
				passes += int64(s.LastScheduledPasses())
			}
			b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
		})
	}
}

// E4: distributed updates.

func BenchmarkDistributedUpdate(b *testing.B) {
	for _, layout := range [][2]int{{8, 32}, {32, 8}} {
		b.Run(fmt.Sprintf("racks=%d", layout[0]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			g := CycleOfCliques(layout[0], layout[1])
			m := NewDistributed(g, 0)
			var rounds int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var u Update
				if e, ok := RandomNonEdge(m.Core().Graph(), rng); ok && i%2 == 0 {
					u = Update{Kind: InsertEdge, U: e.U, V: e.V}
				} else if e, ok := RandomEdge(m.Core().Graph(), rng); ok {
					u = Update{Kind: DeleteEdge, U: e.U, V: e.V}
				} else {
					continue
				}
				if _, err := m.Apply(u); err != nil {
					b.Fatal(err)
				}
				rounds += m.LastRounds()
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "netrounds/op")
		})
	}
}

// E5: building D (preprocessing).

func BenchmarkBuildD(b *testing.B) {
	for _, n := range bigSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			g := GnpConnected(n, 4.0/float64(n), rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := NewMaintainer(g)
				_ = m.D()
			}
		})
	}
}

// E7: rerooting in isolation, random vs adversarial.

func BenchmarkRerootRandom(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			g := GnpConnected(n, 3.0/float64(n), rng)
			m := NewMaintainer(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Delete a tree edge (forces a reroot), restore it.
				e := deepTreeEdge(m)
				if err := m.DeleteEdge(e.U, e.V); err != nil {
					b.Fatal(err)
				}
				if err := m.InsertEdge(e.U, e.V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRerootBroom(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := BroomGraph(n, n/2)
			m := NewMaintainer(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := deepTreeEdge(m)
				if err := m.DeleteEdge(e.U, e.V); err != nil {
					b.Fatal(err)
				}
				if err := m.InsertEdge(e.U, e.V); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func deepTreeEdge(m *Maintainer) Edge {
	t := m.Tree()
	g := m.Graph()
	best, bestSz := Edge{}, -1
	for v := 0; v < g.NumVertexSlots(); v++ {
		if t.Present(v) && t.Parent[v] != m.PseudoRoot() && t.Parent[v] != None {
			if t.Size(v) > bestSz {
				best, bestSz = Edge{U: t.Parent[v], V: v}, t.Size(v)
			}
		}
	}
	return best
}

// E8: execution cost of D and the update path. Everything runs
// sequentially; the PRAM machine only records model costs.

// benchQueryInstance builds a D plus a deep root-to-leaf walk and the
// off-walk source set, the shape of the engine's per-round batched queries.
func benchQueryInstance(n int) (*dstruct.D, []int, []int) {
	rng := rand.New(rand.NewSource(9))
	g := GnpConnected(n, 4.0/float64(n), rng)
	tr := StaticDFS(g)
	deep := tr.Root
	for v := 0; v < g.NumVertexSlots(); v++ {
		if tr.Present(v) && tr.Level(v) > tr.Level(deep) {
			deep = v
		}
	}
	walk := tr.PathUp(deep, tr.Root)
	onWalk := make(map[int]bool, len(walk))
	for _, v := range walk {
		onWalk[v] = true
	}
	var sources []int
	for v := 0; v < g.NumVertexSlots(); v++ {
		if g.IsVertex(v) && !onWalk[v] {
			sources = append(sources, v)
		}
	}
	d := dstruct.Build(g, tr, pram.NewMachine(2*g.NumEdges()))
	return d, sources, walk
}

func BenchmarkEdgeToWalkExec(b *testing.B) {
	for _, n := range []int{4096, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, sources, walk := benchQueryInstance(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := d.EdgeToWalk(sources, walk, true, nil); !ok {
					b.Fatal("no hit")
				}
			}
		})
	}
}

// BenchmarkEdgeToWalkBatchExec models the batches reroot.processComp
// sends: 256 queries of 1–8 sources against one walk slice of ~n/4
// vertices, plus 4 queries on distinct walks. Each distinct walk is
// prepared once per batch, so the batch costs its sources rather than
// queries × walk length.
func BenchmarkEdgeToWalkBatchExec(b *testing.B) {
	for _, n := range []int{4096, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, sources, path := benchQueryInstance(n)
			rng := rand.New(rand.NewSource(11))
			shared := path[:min(len(path), n/4)]
			var qs []dstruct.WalkQuery
			for q := 0; q < 260; q++ {
				walk := shared
				if q%65 == 64 {
					lo := rng.Intn(len(path) / 2)
					walk = path[lo : lo+len(path)/8+1]
				}
				src := make([]int, 1+rng.Intn(8))
				for i := range src {
					src[i] = sources[rng.Intn(len(sources))]
				}
				qs = append(qs, dstruct.WalkQuery{Sources: src, Walk: walk, FromEnd: true})
			}
			hit := false
			for _, a := range d.EdgeToWalkBatch(qs, nil) {
				hit = hit || a.OK
			}
			if !hit {
				b.Fatal("no hit")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.EdgeToWalkBatch(qs, nil)
			}
		})
	}
}

func BenchmarkBuildDExec(b *testing.B) {
	for _, n := range []int{4096, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			g := GnpConnected(n, 4.0/float64(n), rng)
			tr := StaticDFS(g)
			mach := pram.NewMachine(2 * g.NumEdges())
			d := dstruct.Build(g, tr, mach)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Rebuild(g, tr, mach)
			}
		})
	}
}

// BenchmarkUpdateExec compares the rerooting executors on the same update
// stream: exec=dfs (the default SubtreeDFS executor, one static DFS per
// rerooted subtree) vs exec=parallel (the paper's Section 4 engine), both
// with D maintained incrementally (Update repositions only moved entries,
// falling back to a rebuild on high churn). On low-churn updates the cost
// tracks the moved set, not the graph. incfrac/op reports the fraction of
// updates that stayed on the incremental path.
func BenchmarkUpdateExec(b *testing.B) {
	execs := []struct {
		name string
		x    Executor
	}{{"dfs", SubtreeDFS}, {"parallel", Parallel}}
	for _, n := range []int{4096, 100000} {
		for _, x := range execs {
			b.Run(fmt.Sprintf("n=%d/exec=%s", n, x.name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				g := GnpConnected(n, 3.0/float64(n), rng)
				mach := pram.NewMachine(2*g.NumEdges() + g.NumVertexSlots() + 1)
				m := NewMaintainerWith(g, Options{RebuildD: true, Machine: mach, Executor: x.x})
				es := newBenchEdges(g)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchUpdate(b, m, es, rng)
				}
				b.StopTimer()
				inc, reb := m.D().MaintenanceCounts()
				if total := inc + reb; total > 0 {
					b.ReportMetric(float64(inc)/float64(total), "incfrac/op")
				}
			})
		}
	}
}

// BenchmarkUpdateExecLowChurn isolates the acceptance shape for incremental
// D maintenance: a fixed-churn workload (alternating back-edge insert/delete
// of one far-apart vertex pair — the tree never changes) across growing n.
// The per-update cost stays flat as n, and with it m, grows.
func BenchmarkUpdateExecLowChurn(b *testing.B) {
	for _, n := range []int{4096, 16384, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := GnpConnected(n, 3.0/float64(n), rng)
			m := NewMaintainerWith(g, Options{RebuildD: true})
			// A non-edge whose endpoints are tree-comparable: inserting
			// it is a back edge, the lowest-churn update there is.
			tr := m.Tree()
			u, v := -1, -1
			for x := 0; x < g.NumVertexSlots() && u < 0; x++ {
				if !tr.Present(x) || tr.Level(x) < 3 {
					continue
				}
				a := tr.Parent[tr.Parent[tr.Parent[x]]]
				if a != m.PseudoRoot() && !m.Graph().HasEdge(x, a) {
					u, v = x, a
				}
			}
			if u < 0 {
				b.Skip("no comparable non-edge found")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if i%2 == 0 {
					err = m.InsertEdge(u, v)
				} else {
					err = m.DeleteEdge(u, v)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateExecObsOverhead prices the observability instrumentation
// on the update hot path, against the same low-churn incremental workload
// as BenchmarkUpdateExecLowChurn (the cheapest real update, so the
// percentages below are worst-case):
//
//   - mode=off    — the nil-gated default every single-tenant caller gets.
//   - mode=traced — the serving shard's full per-update instrumentation:
//     attach a trace, record the wait/apply histograms, accumulate the
//     stage counters, offer to the slow ring.
//   - record      — the histogram-record primitive alone; reports
//     record-ns/op and hotpath-record-pct, the cost of the hot path's two
//     Record calls as a percentage of a calibrated untraced update. The
//     acceptance target is hotpath-record-pct < 1.
func BenchmarkUpdateExecObsOverhead(b *testing.B) {
	setup, toggle := lowChurnToggleSetup, toggleEdge
	b.Run("mode=off", func(b *testing.B) {
		m, u, v := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(b, m, u, v, i)
		}
	})
	b.Run("mode=traced", func(b *testing.B) {
		m, u, v := setup(b)
		var (
			trace               obs.Trace
			waitHist, applyHist obs.Histogram
			stageNanos          [5]atomic.Int64
			ring                = obs.NewSlowRing(obs.DefaultSlowRingSize)
		)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recv := time.Now()
			trace = obs.Trace{Kind: "InsertEdge", Start: recv, Batch: 1}
			m.SetTrace(&trace)
			toggle(b, m, u, v, i)
			m.SetTrace(nil)
			apply := time.Since(recv)
			if plan := apply - trace.Engine - trace.DMaint; plan > 0 {
				trace.Plan = plan
			}
			waitHist.Record(trace.Wait)
			applyHist.Record(apply)
			trace.Total = trace.StageSum()
			stageNanos[1].Add(int64(trace.Plan))
			stageNanos[2].Add(int64(trace.Engine))
			stageNanos[3].Add(int64(trace.DMaint))
			ring.Offer(&trace)
		}
	})
	b.Run("record", func(b *testing.B) {
		var h obs.Histogram
		start := time.Now()
		for i := 0; i < b.N; i++ {
			// Steady-state latency samples: jitter around a few µs, so the
			// max-CAS settles after the first records (a monotone ramp would
			// force the CAS every call — not what a latency stream does).
			h.RecordValue(2500 + int64(i&1023))
		}
		recordNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
		// Calibrate the untraced update this records against.
		m, u, v := setup(b)
		const calib = 2000
		us := time.Now()
		for i := 0; i < calib; i++ {
			toggle(b, m, u, v, i)
		}
		updateNs := float64(time.Since(us).Nanoseconds()) / calib
		b.ReportMetric(recordNs, "record-ns/op")
		if updateNs > 0 {
			// The apply hot path records two histograms per update.
			b.ReportMetric(100*2*recordNs/updateNs, "hotpath-record-pct")
		}
	})
}

// lowChurnToggleSetup builds the cheapest comparable update workload the
// hot-path overhead benchmarks share: a maintainer over a sparse n=16384
// graph and one non-tree (descendant, 3rd ancestor) pair to toggle with
// alternating inserts and deletes.
func lowChurnToggleSetup(b *testing.B) (*Maintainer, int, int) {
	const n = 16384
	rng := rand.New(rand.NewSource(1))
	g := GnpConnected(n, 3.0/float64(n), rng)
	m := NewMaintainerWith(g, Options{RebuildD: true})
	tr := m.Tree()
	for x := 0; x < g.NumVertexSlots(); x++ {
		if !tr.Present(x) || tr.Level(x) < 3 {
			continue
		}
		a := tr.Parent[tr.Parent[tr.Parent[x]]]
		if a != m.PseudoRoot() && !m.Graph().HasEdge(x, a) {
			return m, x, a
		}
	}
	b.Skip("no comparable non-edge found")
	return nil, 0, 0
}

func toggleEdge(b *testing.B, m *Maintainer, u, v, i int) {
	var err error
	if i%2 == 0 {
		err = m.InsertEdge(u, v)
	} else {
		err = m.DeleteEdge(u, v)
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkUpdateExecTenantOverhead prices the per-tenant cost attribution
// the serving shard adds to the same hot path BenchmarkUpdateExecObsOverhead
// measures — one TenantMeter.RecordUpdate (four atomic adds) plus one
// weighted SpaceSaving.Observe per applied update:
//
//   - mode=off     — the bare maintainer update.
//   - mode=metered — the update plus exactly what the shard loop adds: the
//     meter fold and the hottest-graphs sketch observation.
//   - record       — the attribution primitives alone; reports meter-ns/op
//     and hotpath-meter-pct, their cost as a percentage of a calibrated
//     unmetered update. The acceptance target is hotpath-meter-pct < 1,
//     the same bar as the histogram instrumentation.
func BenchmarkUpdateExecTenantOverhead(b *testing.B) {
	setup, toggle := lowChurnToggleSetup, toggleEdge
	b.Run("mode=off", func(b *testing.B) {
		m, u, v := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(b, m, u, v, i)
		}
	})
	b.Run("mode=metered", func(b *testing.B) {
		m, u, v := setup(b)
		var meter obs.TenantMeter
		hot := obs.NewSpaceSaving(128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			toggle(b, m, u, v, i)
			apply := time.Since(start)
			meter.RecordUpdate(apply, apply/2, apply/4, false)
			hot.Observe("bench-tenant", uint64(apply))
		}
	})
	b.Run("record", func(b *testing.B) {
		var meter obs.TenantMeter
		hot := obs.NewSpaceSaving(128)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			// Steady-state apply costs: jitter around a few µs so the sketch
			// exercises its tracked-key fast path, as one graph's stream does.
			d := time.Duration(2500 + int64(i&1023))
			meter.RecordUpdate(d, d/2, d/4, i&63 == 0)
			hot.Observe("bench-tenant", uint64(d))
		}
		recordNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
		// Calibrate the unmetered update this attributes against.
		m, u, v := setup(b)
		const calib = 2000
		us := time.Now()
		for i := 0; i < calib; i++ {
			toggle(b, m, u, v, i)
		}
		updateNs := float64(time.Since(us).Nanoseconds()) / calib
		b.ReportMetric(recordNs, "meter-ns/op")
		if updateNs > 0 {
			b.ReportMetric(100*recordNs/updateNs, "hotpath-meter-pct")
		}
	})
}

// E9: serving-layer throughput. Sweeps shards × tenant graphs × read/write
// mix; on a multi-core host updates/sec scales with the shard count because
// each shard is an independent update loop (reads are lock-free snapshot
// loads at any shard count). Conflicted updates (two submitters racing the
// same edge from stale snapshots) still cost a full mailbox round trip, so
// they are measured, not skipped. Snapshot publication is O(1) — the
// persistent graph and tree are shared zero-copy — so the write-path cost
// here is the maintainer's update work itself, not cloning;
// internal/service.BenchmarkPublish isolates the publication step and
// pins it flat across graph sizes.

func BenchmarkServiceThroughput(b *testing.B) {
	shardCounts := []int{1}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		shardCounts = append(shardCounts, w)
	}
	const n = 256
	var seedCtr atomic.Int64
	for _, shards := range shardCounts {
		for _, graphs := range []int{1, 8} {
			for _, readPct := range []int{0, 90} {
				name := fmt.Sprintf("shards=%d/graphs=%d/read=%d%%", shards, graphs, readPct)
				b.Run(name, func(b *testing.B) {
					svc := NewService(ServiceConfig{Shards: shards})
					defer svc.Close()
					ids := make([]GraphID, graphs)
					for i := range ids {
						ids[i] = GraphID(fmt.Sprintf("bench-%d", i))
						rng := rand.New(rand.NewSource(int64(10 + i)))
						if _, err := svc.CreateGraph(ids[i], GnpConnected(n, 4.0/n, rng)); err != nil {
							b.Fatal(err)
						}
					}
					var updates, conflicts int64
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						rng := rand.New(rand.NewSource(1000 + seedCtr.Add(1)))
						for pb.Next() {
							id := ids[rng.Intn(len(ids))]
							snap, err := svc.Snapshot(id)
							if err != nil {
								b.Error(err)
								return
							}
							if rng.Intn(100) < readPct {
								u, v := rng.Intn(n), rng.Intn(n)
								if snap.Tree.Present(u) && snap.Tree.Present(v) {
									if _, err := snap.IsAncestor(u, v); err != nil {
										b.Error(err)
										return
									}
								}
								continue
							}
							var u Update
							if e, ok := RandomNonEdge(snap.Graph, rng); ok && rng.Intn(2) == 0 {
								u = Update{Kind: InsertEdge, U: e.U, V: e.V}
							} else if e, ok := RandomEdge(snap.Graph, rng); ok {
								u = Update{Kind: DeleteEdge, U: e.U, V: e.V}
							} else {
								continue
							}
							fut, err := svc.Apply(id, u)
							if err != nil {
								b.Error(err)
								return
							}
							if _, _, err := fut.Wait(); err != nil {
								atomic.AddInt64(&conflicts, 1) // stale-snapshot race, still a full round trip
							} else {
								atomic.AddInt64(&updates, 1)
							}
						}
					})
					b.StopTimer()
					if total := updates + conflicts; total > 0 {
						b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/sec")
						b.ReportMetric(100*float64(conflicts)/float64(total), "conflict%")
					}
				})
			}
		}
	}
}

// Substrate micro-benchmarks.

func BenchmarkStaticDFS(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			g := GnpConnected(n, 4.0/float64(n), rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = StaticDFS(g)
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := GnpConnected(1024, 4.0/1024, rng)
	m := NewMaintainer(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(m.Graph(), m.Tree(), m.PseudoRoot()); err != nil {
			b.Fatal(err)
		}
	}
}
