package graph

import (
	"fmt"
	"slices"
	"sort"
)

// pchunkShift sizes the copy-on-write granularity: 1<<pchunkShift vertex
// rows per chunk. A mutation copies the touched chunks (a few KB each) and
// the spine of chunk pointers (n/64 words); everything else is shared with
// the previous version.
const (
	pchunkShift = 6
	pchunkSize  = 1 << pchunkShift
	pchunkMask  = pchunkSize - 1
)

// pchunk is one fixed-width block of vertex rows. Chunks are immutable once
// published inside a Persistent and may be shared by any number of versions.
type pchunk struct {
	rows  [pchunkSize][]int32 // sorted neighbor lists (nil for dead/empty)
	alive uint64              // liveness bitmap, bit i = vertex (base+i)
}

// Persistent is an immutable simple undirected graph. Every mutating method
// leaves the receiver untouched and returns a new version that shares all
// untouched state with its predecessor: per-vertex neighbor rows are sorted
// int32 slices hanging off a chunked spine, and a mutation path-copies only
// the rows it rewrites, the chunks holding them, and the spine — O(Δ + n/64)
// words for an update touching Δ row entries, independent of m.
//
// Because versions are immutable, a *Persistent is safe for concurrent
// readers without synchronization and may be retained forever (the serving
// layer publishes one per snapshot; old versions keep verifying against
// their trees no matter how far the maintainer has moved on).
type Persistent struct {
	chunks  []*pchunk
	slots   int // allocated vertex IDs, including holes
	m       int
	nAlive  int
	version uint64
}

// NewPersistent returns an edgeless persistent graph with n live vertices.
func NewPersistent(n int) *Persistent { return MustFromEdges(n, nil) }

// FromEdges builds a graph on n live vertices with the given edge set. It
// rejects self-loops, duplicate edges and endpoints outside [0, n).
func FromEdges(n int, edges []Edge) (*Persistent, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int, n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) touches non-vertex", e.U, e.V)
		}
		deg[e.U]++
		deg[e.V]++
	}
	// All rows share one backing array; each row's capacity ends at its
	// degree, and mutations copy rows rather than append to them.
	back := make([]int32, 2*len(edges))
	rows := make([][]int32, n)
	for v, d := range deg {
		rows[v], back = back[:0:d], back[d:]
	}
	for _, e := range edges {
		rows[e.U] = append(rows[e.U], int32(e.V))
		rows[e.V] = append(rows[e.V], int32(e.U))
	}
	live := make([]bool, n)
	for v := range rows {
		slices.Sort(rows[v])
		live[v] = true
	}
	return FromRows(live, rows)
}

// MustFromEdges is FromEdges that panics on error; intended for tests and
// generators with known-valid input.
func MustFromEdges(n int, edges []Edge) *Persistent {
	p, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// FromRows builds a graph from one neighbor row per vertex slot, the layout
// a checkpoint stores. live[v] false marks a hole, whose row must be empty.
// Every row must be strictly increasing and name only live vertices other
// than its owner, and w in v's row must imply v in w's row. The rows are
// retained, not copied: the caller must not modify them afterwards.
func FromRows(live []bool, rows [][]int32) (*Persistent, error) {
	n := len(rows)
	p := &Persistent{chunks: make([]*pchunk, (n+pchunkMask)>>pchunkShift), slots: n}
	for i := range p.chunks {
		p.chunks[i] = &pchunk{}
	}
	for v, row := range rows {
		if !live[v] {
			if len(row) != 0 {
				return nil, fmt.Errorf("graph: hole %d has degree %d", v, len(row))
			}
			continue
		}
		c := p.chunks[v>>pchunkShift]
		c.alive |= 1 << uint(v&pchunkMask)
		if len(row) > 0 {
			c.rows[v&pchunkMask] = row
		}
		p.nAlive++
		p.m += len(row)
	}
	for v, row := range rows {
		for i, w := range row {
			switch {
			case int(w) == v:
				return nil, fmt.Errorf("graph: self loop (%d,%d)", v, w)
			case i > 0 && w == row[i-1]:
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, w)
			case i > 0 && w < row[i-1]:
				return nil, fmt.Errorf("graph: row %d is not sorted", v)
			case !p.IsVertex(int(w)):
				return nil, fmt.Errorf("graph: edge (%d,%d) touches non-vertex", v, w)
			case !p.HasEdge(int(w), v):
				return nil, fmt.Errorf("graph: asymmetric row entry (%d,%d)", v, w)
			}
		}
	}
	p.m /= 2
	return p, nil
}

// NumVertexSlots returns the number of allocated vertex IDs.
func (p *Persistent) NumVertexSlots() int { return p.slots }

// NumVertices returns the number of live vertices.
func (p *Persistent) NumVertices() int { return p.nAlive }

// NumEdges returns the number of edges.
func (p *Persistent) NumEdges() int { return p.m }

// Version counts the mutations this version descends from.
func (p *Persistent) Version() uint64 { return p.version }

// IsVertex reports whether v is a live vertex.
func (p *Persistent) IsVertex(v int) bool {
	return v >= 0 && v < p.slots &&
		p.chunks[v>>pchunkShift].alive&(1<<uint(v&pchunkMask)) != 0
}

func (p *Persistent) row(v int) []int32 {
	return p.chunks[v>>pchunkShift].rows[v&pchunkMask]
}

// HasEdge reports whether edge (u,v) exists.
func (p *Persistent) HasEdge(u, v int) bool {
	if !p.IsVertex(u) || !p.IsVertex(v) {
		return false
	}
	row := p.row(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// Degree returns the degree of v, or 0 for a non-vertex.
func (p *Persistent) Degree(v int) int {
	if !p.IsVertex(v) {
		return 0
	}
	return len(p.row(v))
}

// Neighbors appends the neighbors of v to buf and returns it, in increasing
// vertex order (the rows are stored sorted).
func (p *Persistent) Neighbors(v int, buf []int) []int {
	buf = buf[:0]
	if !p.IsVertex(v) {
		return buf
	}
	for _, w := range p.row(v) {
		buf = append(buf, int(w))
	}
	return buf
}

// Row returns v's neighbors in increasing vertex order without copying
// them, or nil for a non-vertex. The row is shared with this version (and
// with every later version that did not touch v): callers must not modify
// it.
func (p *Persistent) Row(v int) []int32 {
	if !p.IsVertex(v) {
		return nil
	}
	return p.row(v)
}

// SortedNeighbors returns the neighbors of v in increasing vertex order.
func (p *Persistent) SortedNeighbors(v int) []int {
	return p.Neighbors(v, nil)
}

// Edges returns all edges in canonical (min,max) order, sorted.
func (p *Persistent) Edges() []Edge {
	es := make([]Edge, 0, p.m)
	for u := 0; u < p.slots; u++ {
		if !p.IsVertex(u) {
			continue
		}
		for _, w := range p.row(u) {
			if int(w) > u {
				es = append(es, Edge{u, int(w)})
			}
		}
	}
	return es
}

// ConnectedComponents labels live vertices with component IDs (0-based,
// contiguous) and returns (labels, count). Dead vertices get label -1.
func (p *Persistent) ConnectedComponents() ([]int, int) {
	label := make([]int, p.slots)
	for i := range label {
		label[i] = -1
	}
	next := 0
	stack := make([]int, 0, p.slots)
	for s := 0; s < p.slots; s++ {
		if !p.IsVertex(s) || label[s] >= 0 {
			continue
		}
		label[s] = next
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w32 := range p.row(v) {
				if w := int(w32); label[w] < 0 {
					label[w] = next
					stack = append(stack, w)
				}
			}
		}
		next++
	}
	return label, next
}

// IsConnected reports whether all live vertices are in one component.
func (p *Persistent) IsConnected() bool {
	if p.nAlive == 0 {
		return true
	}
	_, k := p.ConnectedComponents()
	return k == 1
}

// Diameter returns the diameter of the graph (max eccentricity over live
// vertices) computed by BFS from every vertex, or -1 if disconnected or
// empty. Intended for experiment setup on moderate sizes, not hot paths.
func (p *Persistent) Diameter() int {
	if p.nAlive == 0 || !p.IsConnected() {
		return -1
	}
	dist := make([]int, p.slots)
	queue := make([]int, 0, p.slots)
	diam := 0
	for s := 0; s < p.slots; s++ {
		if !p.IsVertex(s) {
			continue
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for h := 0; h < len(queue); h++ {
			v := queue[h]
			for _, w32 := range p.row(v) {
				if w := int(w32); dist[w] < 0 {
					dist[w] = dist[v] + 1
					diam = max(diam, dist[w])
					queue = append(queue, w)
				}
			}
		}
	}
	return diam
}

// pmut accumulates one mutation: a shallow spine copy whose chunks are
// copied on first touch, so a multi-row update (vertex deletion) copies
// each affected chunk exactly once.
type pmut struct {
	np     *Persistent
	copied map[int]bool
}

func (p *Persistent) begin() *pmut {
	return &pmut{
		np: &Persistent{
			chunks:  append([]*pchunk(nil), p.chunks...),
			slots:   p.slots,
			m:       p.m,
			nAlive:  p.nAlive,
			version: p.version + 1,
		},
		copied: make(map[int]bool, 4),
	}
}

// chunk returns a privately owned copy of chunk ci, copying it from the
// shared predecessor on first touch (growing the spine for a new chunk).
func (mu *pmut) chunk(ci int) *pchunk {
	if ci == len(mu.np.chunks) {
		c := &pchunk{}
		mu.np.chunks = append(mu.np.chunks, c)
		mu.copied[ci] = true
		return c
	}
	if !mu.copied[ci] {
		c := *mu.np.chunks[ci]
		mu.np.chunks[ci] = &c
		mu.copied[ci] = true
	}
	return mu.np.chunks[ci]
}

// setRow installs a fresh row for v.
func (mu *pmut) setRow(v int, row []int32) {
	mu.chunk(v >> pchunkShift).rows[v&pchunkMask] = row
}

// rowInsert returns a copy of row with w inserted at its sorted position.
func rowInsert(row []int32, w int32) []int32 {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= w })
	nr := make([]int32, len(row)+1)
	copy(nr, row[:i])
	nr[i] = w
	copy(nr[i+1:], row[i:])
	return nr
}

// rowRemove returns a copy of row with w removed (w must be present).
func rowRemove(row []int32, w int32) []int32 {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= w })
	nr := make([]int32, len(row)-1)
	copy(nr, row[:i])
	copy(nr[i:], row[i+1:])
	return nr
}

// InsertEdge returns a new version with edge (u,v) added.
func (p *Persistent) InsertEdge(u, v int) (*Persistent, error) {
	if u == v {
		return nil, fmt.Errorf("graph: self loop (%d,%d)", u, v)
	}
	if !p.IsVertex(u) || !p.IsVertex(v) {
		return nil, fmt.Errorf("graph: edge (%d,%d) touches non-vertex", u, v)
	}
	if p.HasEdge(u, v) {
		return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	mu := p.begin()
	mu.setRow(u, rowInsert(p.row(u), int32(v)))
	mu.setRow(v, rowInsert(p.row(v), int32(u)))
	mu.np.m++
	return mu.np, nil
}

// DeleteEdge returns a new version with edge (u,v) removed.
func (p *Persistent) DeleteEdge(u, v int) (*Persistent, error) {
	if !p.HasEdge(u, v) {
		return nil, fmt.Errorf("graph: no edge (%d,%d)", u, v)
	}
	mu := p.begin()
	mu.setRow(u, rowRemove(p.row(u), int32(v)))
	mu.setRow(v, rowRemove(p.row(v), int32(u)))
	mu.np.m--
	return mu.np, nil
}

// InsertVertex returns a new version with a new vertex connected to the
// given neighbors, plus its ID. Neighbors must be distinct live vertices.
func (p *Persistent) InsertVertex(neighbors []int) (*Persistent, int, error) {
	seen := make(map[int]struct{}, len(neighbors))
	for _, w := range neighbors {
		if !p.IsVertex(w) {
			return nil, -1, fmt.Errorf("graph: new vertex neighbor %d is not a vertex", w)
		}
		if _, dup := seen[w]; dup {
			return nil, -1, fmt.Errorf("graph: duplicate neighbor %d", w)
		}
		seen[w] = struct{}{}
	}
	v := p.slots
	mu := p.begin()
	mu.np.slots++
	mu.np.nAlive++
	c := mu.chunk(v >> pchunkShift)
	c.alive |= 1 << uint(v&pchunkMask)
	if len(neighbors) > 0 {
		row := make([]int32, len(neighbors))
		for i, w := range neighbors {
			row[i] = int32(w)
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		c.rows[v&pchunkMask] = row
		for _, w := range neighbors {
			mu.setRow(w, rowInsert(p.row(w), int32(v)))
		}
		mu.np.m += len(neighbors)
	}
	return mu.np, v, nil
}

// DeleteVertex returns a new version with v and its incident edges removed.
// The ID becomes a hole.
func (p *Persistent) DeleteVertex(v int) (*Persistent, error) {
	if !p.IsVertex(v) {
		return nil, fmt.Errorf("graph: delete of non-vertex %d", v)
	}
	mu := p.begin()
	old := p.row(v)
	for _, w := range old {
		mu.setRow(int(w), rowRemove(p.row(int(w)), int32(v)))
	}
	mu.np.m -= len(old)
	c := mu.chunk(v >> pchunkShift)
	c.rows[v&pchunkMask] = nil
	c.alive &^= 1 << uint(v&pchunkMask)
	mu.np.nAlive--
	return mu.np, nil
}
