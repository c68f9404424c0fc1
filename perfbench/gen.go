package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// spec sizes one workload. A step is the client's unit of work: one update
// (churn, durable) or one batch plus its reads and queries (read-mix).
type spec struct {
	n       int // vertices per graph
	graphs  int
	wal     bool
	window  int // outstanding Applies the client keeps (1 = wait on each)
	batch   int // updates per ApplyBatch step; 0 sends single Applys
	churnPc int // read-mix: percent of batch updates that are random churn
	pairs   int // back-edge pairs per graph (durable, read-mix)

	readsPerStep   int
	queriesPerStep int
	zipf           bool // reads, queries and batch updates pick graphs by Zipf

	warmup     int // untimed steps before each timed phase
	stepsPerS  int // stream length per second of --seconds (upper bound on the rate)
	traceSteps int // steps of each fixed-size phase of the traced run, per second of --seconds
	setups     int // set-ups per run; setup_s is their median
}

var specs = map[string]spec{
	// Fully dynamic: uniformly random inserts and deletes, one Apply at a
	// time. The reroot engine, D queries and D maintenance do the work.
	"churn": {
		n: 4096, graphs: 16, window: 1,
		readsPerStep: 4,
		warmup:       200, stepsPerS: 4000, traceSteps: 40, setups: 5,
	},
	// Low churn under the WAL: back-edge toggles that never change the DFS
	// tree, so the WAL, checkpoints, the mailbox, publish, Persistent
	// mutation and incremental D maintenance carry the load.
	"durable": {
		n: 16384, graphs: 8, wal: true, window: 8,
		pairs: 512, readsPerStep: 1,
		warmup: 5000, stepsPerS: 0, traceSteps: 3000, setups: 5,
	},
	// Reads and analytics queries over more graphs than the query caches
	// hold, with Zipf skew, plus a batch of mostly low-churn writes per step.
	"read-mix": {
		n: 4096, graphs: 48, batch: 4, churnPc: 10,
		pairs: 256, readsPerStep: 16, queriesPerStep: 4, zipf: true,
		warmup: 200, stepsPerS: 1500, traceSteps: 35, setups: 5,
	},
}

// tiny shrinks a spec for the benchmark's own test.
func (s spec) tiny() spec {
	s.n, s.graphs = 256, 4
	if s.zipf {
		s.graphs = 6
	}
	if s.pairs > 0 {
		s.pairs = 32
	}
	s.warmup, s.traceSteps, s.setups = 20, 40, 2
	return s
}

// op is one generated update: an edge insert or delete on graph g.
type op struct {
	g    int32
	ins  bool
	u, v int32
}

type readArg struct {
	g    int32
	path bool  // Path(v, ancestor k levels up) instead of IsAncestor(a, v)
	a, v int32 // IsAncestor operands; v is also Path's lower end
	k    int32
}

type queryKind uint8

const (
	qLCA queryKind = iota
	qKth
	qAgg
	qBicon
	numQueryKinds
)

var queryNames = [numQueryKinds]string{"LCA", "KthAncestor", "SubtreeAgg", "SameBiconnectedComponent"}

type queryArg struct {
	g    int32
	kind queryKind
	u, v int32
	k    int32
}

// inputs is everything a run feeds the service, generated from the seed
// before any timed region. ops is the update stream in submission order;
// when cyclic it is one period that returns every graph to its initial
// edge set, and the client repeats it. reads and queries are pools the
// client cycles through.
type inputs struct {
	spec    spec
	graphs  []*graph.Graph
	ops     []op
	cyclic  bool
	reads   []readArg
	queries []queryArg
}

// opAt returns the i-th update of the stream and whether it exists.
func (in *inputs) opAt(i int) (op, bool) {
	if in.cyclic {
		return in.ops[i%len(in.ops)], true
	}
	if i < len(in.ops) {
		return in.ops[i], true
	}
	return op{}, false
}

// mirror is a generator-side edge set with O(1) uniform picks of an edge
// and (by rejection) of a non-edge.
type mirror struct {
	n     int
	edges []uint64
	pos   map[uint64]int
}

func ekey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newMirror(g *graph.Graph) *mirror {
	m := &mirror{n: g.NumVertexSlots(), pos: make(map[uint64]int, g.NumEdges())}
	for _, e := range g.Edges() {
		m.add(ekey(e.U, e.V))
	}
	return m
}

func (m *mirror) has(k uint64) bool { _, ok := m.pos[k]; return ok }

func (m *mirror) add(k uint64) {
	m.pos[k] = len(m.edges)
	m.edges = append(m.edges, k)
}

func (m *mirror) remove(k uint64) {
	i := m.pos[k]
	last := m.edges[len(m.edges)-1]
	m.edges[i] = last
	m.pos[last] = i
	m.edges = m.edges[:len(m.edges)-1]
	delete(m.pos, k)
}

func (m *mirror) apply(o op) {
	k := ekey(int(o.u), int(o.v))
	if o.ins {
		m.add(k)
	} else {
		m.remove(k)
	}
}

// randomChurn picks a uniformly random insert of a non-edge or delete of an
// existing edge, 50/50, and applies it to the mirror.
func (m *mirror) randomChurn(g int32, rng *rand.Rand) op {
	if rng.Intn(2) == 0 && len(m.edges) > 0 {
		k := m.edges[rng.Intn(len(m.edges))]
		m.remove(k)
		return op{g: g, u: int32(k >> 32), v: int32(uint32(k))}
	}
	for {
		u, v := rng.Intn(m.n), rng.Intn(m.n)
		if u != v && !m.has(ekey(u, v)) {
			m.add(ekey(u, v))
			return op{g: g, ins: true, u: int32(u), v: int32(v)}
		}
	}
}

// toggle inserts the pair if absent and deletes it if present.
func (m *mirror) toggle(g int32, p [2]int32) op {
	o := op{g: g, ins: !m.has(ekey(int(p[0]), int(p[1]))), u: p[0], v: p[1]}
	m.apply(o)
	return o
}

// sortedKeys returns the mirror's edges in ascending key order.
func (m *mirror) sortedKeys() []uint64 {
	out := append([]uint64(nil), m.edges...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// backEdgePairs picks up to want distinct vertex pairs (a, v) with a a
// proper ancestor of v at distance >= 2 in g's static DFS tree and (a, v)
// not an edge of g. Inserting or deleting such a pair never changes the DFS
// tree. The service's initial tree has the same parent array as the static
// DFS (both scan vertices and rows in ascending order).
func backEdgePairs(g *graph.Graph, want int, rng *rand.Rand) [][2]int32 {
	t := baseline.StaticDFS(g)
	n := g.NumVertexSlots()
	seen := make(map[uint64]bool, want)
	var out [][2]int32
	for tries := 0; len(out) < want && tries < 100*want; tries++ {
		v := rng.Intn(n)
		a := v
		for up := 2 + rng.Intn(62); up > 0; up-- {
			a = t.Parent[a]
			if a >= n || a < 0 {
				break
			}
		}
		if a >= n || a < 0 || t.Parent[v] == a || g.HasEdge(a, v) || seen[ekey(a, v)] {
			continue
		}
		seen[ekey(a, v)] = true
		out = append(out, [2]int32{int32(a), int32(v)})
	}
	return out
}

// generate builds a run's inputs from the seed. steps is the number of
// steps the stream must cover (ignored by the cyclic durable stream).
func generate(s spec, seed int64, steps int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: s}
	// Edge probability that gives GnpConnected's spanning tree plus overlay
	// an average degree of 4.
	p := (2*float64(s.n) - float64(s.n-1)) / (float64(s.n) * float64(s.n-1) / 2)
	mirrors := make([]*mirror, s.graphs)
	pools := make([][][2]int32, s.graphs)
	for i := 0; i < s.graphs; i++ {
		g := graph.GnpConnected(s.n, p, rng)
		in.graphs = append(in.graphs, g)
		mirrors[i] = newMirror(g)
		if s.pairs > 0 {
			pools[i] = backEdgePairs(g, s.pairs, rng)
			if len(pools[i]) < s.pairs/2 {
				return nil, fmt.Errorf("graph %d: only %d back-edge pairs", i, len(pools[i]))
			}
		}
	}
	var zipf *rand.Zipf
	if s.zipf {
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(s.graphs-1))
	}
	pick := func() int32 {
		if zipf != nil {
			return int32(zipf.Uint64())
		}
		return int32(rng.Intn(s.graphs))
	}

	switch {
	case s.wal:
		// One period: every graph inserts its pairs, then deletes them, in
		// independent random orders, interleaved round robin over graphs.
		in.cyclic = true
		seqs := make([][]op, s.graphs)
		for g := range seqs {
			pool := pools[g]
			for _, i := range rng.Perm(len(pool)) {
				seqs[g] = append(seqs[g], mirrors[g].toggle(int32(g), pool[i]))
			}
			for _, i := range rng.Perm(len(pool)) {
				seqs[g] = append(seqs[g], mirrors[g].toggle(int32(g), pool[i]))
			}
		}
		for k := 0; ; k++ {
			added := false
			for g := range seqs {
				if k < len(seqs[g]) {
					in.ops = append(in.ops, seqs[g][k])
					added = true
				}
			}
			if !added {
				break
			}
		}
	case s.batch > 0:
		used := make([]bool, s.graphs)
		var step []int32
		for st := 0; st < steps; st++ {
			step = step[:0]
			for len(step) < s.batch {
				if g := pick(); !used[g] {
					used[g] = true
					step = append(step, g)
				}
			}
			for _, g := range step {
				used[g] = false
				if rng.Intn(100) < s.churnPc {
					in.ops = append(in.ops, mirrors[g].randomChurn(g, rng))
				} else {
					pool := pools[g]
					in.ops = append(in.ops, mirrors[g].toggle(g, pool[rng.Intn(len(pool))]))
				}
			}
		}
	default:
		for st := 0; st < steps; st++ {
			g := int32(st % s.graphs)
			in.ops = append(in.ops, mirrors[g].randomChurn(g, rng))
		}
	}

	// Read and query operand pools. Vertices are never deleted, so any
	// vertex pair is a valid IsAncestor operand; Path and KthAncestor pick
	// their upper end from the pinned snapshot's tree at call time.
	const pool = 1 << 14
	for i := 0; i < pool; i++ {
		in.reads = append(in.reads, readArg{
			g: pick(), path: i%4 == 3,
			a: int32(rng.Intn(s.n)), v: int32(rng.Intn(s.n)), k: int32(1 + rng.Intn(48)),
		})
	}
	if s.queriesPerStep > 0 {
		for i := 0; i < pool; i++ {
			in.queries = append(in.queries, queryArg{
				g: pick(), kind: queryKind(i % int(numQueryKinds)),
				u: int32(rng.Intn(s.n)), v: int32(rng.Intn(s.n)), k: int32(1 + rng.Intn(48)),
			})
		}
	}
	return in, nil
}

// replayMirrors returns each graph's edge set after the first applied
// updates of the stream, in ascending key order.
func (in *inputs) replayMirrors(applied int) [][]uint64 {
	ms := make([]*mirror, len(in.graphs))
	for i, g := range in.graphs {
		ms[i] = newMirror(g)
	}
	for i := 0; i < applied; i++ {
		o, _ := in.opAt(i)
		ms[o.g].apply(o)
	}
	out := make([][]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.sortedKeys()
	}
	return out
}
