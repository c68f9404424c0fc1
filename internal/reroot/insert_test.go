package reroot

import (
	"testing"

	"repro/internal/tree"
)

// refInsertEdge is the LCA formulation of Planner.InsertEdge: a back edge
// when LCA(u,v) is an endpoint, otherwise reroot the child of the LCA
// toward v at v, under u.
func refInsertEdge(t *tree.Tree, u, v int) Plan {
	w := t.LCA(u, v)
	if w == u || w == v {
		return Plan{}
	}
	return Plan{Steps: []Step{{Sub: t.ChildToward(w, v), Root: v, Parent: u}}}
}

// refInsertVertex is the LCA formulation of Planner.InsertVertex.
func refInsertVertex(t *tree.Tree, u int, neighbors []int) Plan {
	if len(neighbors) == 0 {
		return Plan{Steps: []Step{{Sub: u, Root: tree.None, Parent: t.Root}}}
	}
	vj := neighbors[0]
	for _, v := range neighbors[1:] {
		if t.Level(v) < t.Level(vj) {
			vj = v
		}
	}
	steps := []Step{{Sub: u, Root: tree.None, Parent: vj}}
	seen := make(map[int]bool)
	for _, vi := range neighbors {
		if vi == vj {
			continue
		}
		a := t.LCA(vi, vj)
		if a == vi {
			continue
		}
		vPrime := t.ChildToward(a, vi)
		if seen[vPrime] {
			continue
		}
		seen[vPrime] = true
		steps = append(steps, Step{Sub: vPrime, Root: vi, Parent: u})
	}
	return Plan{Steps: steps}
}

// FuzzPlannerInsert requires the planner's insert plans, which find the
// LCA's child by a parent walk, to equal the LCA+ChildToward formulation on
// random forests under a pseudo root, with holes.
//
// Input layout: byte 0 is the number k of tree bytes that follow; byte v-1
// of those deletes vertex v (a hole) or hangs it under an earlier live
// vertex or the pseudo root. The remaining bytes are queries: an op byte
// whose bit 0 picks an edge insert (two endpoint bytes follow) or a vertex
// insert (bits 1-2 give the neighbour count, whose bytes follow).
func FuzzPlannerInsert(f *testing.F) {
	f.Add([]byte{6, 8, 16, 8, 24, 0, 32, 0, 3, 5, 1, 2, 6, 3, 0, 4, 6})
	f.Add([]byte{9, 0, 7, 8, 8, 15, 16, 24, 0, 40, 0, 1, 9, 7, 4, 2, 3, 8, 0, 9, 1})
	f.Add([]byte{12, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 0, 0, 12, 0, 3, 12, 1, 0, 5, 6, 4, 11, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := min(int(data[0])%48, len(data)-1)
		shape, queries := data[1:1+k], data[1+k:]
		n := k + 1 // vertex slots 0..k-1 plus headroom slot k (the new vertex)
		pseudo := n
		parent := make([]int, n+1)
		present := make([]bool, n+1)
		for v := range parent {
			parent[v] = tree.None
		}
		present[pseudo] = true
		live := []int{pseudo}
		for v, b := range shape {
			if b%8 == 7 {
				continue // hole
			}
			parent[v], present[v] = live[int(b/8)%len(live)], true
			live = append(live, v)
		}
		tr, err := tree.Build(pseudo, parent, present)
		if err != nil {
			t.Fatalf("decoded parent array rejected: %v", err)
		}
		vs := live[1:] // real vertices
		if len(vs) == 0 {
			return
		}
		pick := func(b byte) int { return vs[int(b)%len(vs)] }
		p := NewPlanner(tr, nil, nil, nil)
		for len(queries) > 0 {
			op := queries[0]
			queries = queries[1:]
			if op&1 == 0 {
				if len(queries) < 2 {
					return
				}
				u, v := pick(queries[0]), pick(queries[1])
				queries = queries[2:]
				if u == v {
					continue
				}
				if got, want := p.InsertEdge(u, v), refInsertEdge(tr, u, v); !samePlan(got, want) {
					t.Fatalf("InsertEdge(%d,%d) = %+v, LCA reference %+v (parent %v)", u, v, got, want, parent)
				}
				continue
			}
			c := min(int(op>>1)&3, len(queries))
			var nbrs []int
			for _, b := range queries[:c] {
				nbrs = append(nbrs, pick(b))
			}
			queries = queries[c:]
			u := n - 1 // the headroom slot, a hole in tr
			if got, want := p.InsertVertex(u, nbrs), refInsertVertex(tr, u, nbrs); !samePlan(got, want) {
				t.Fatalf("InsertVertex(%d,%v) = %+v, LCA reference %+v (parent %v)", u, nbrs, got, want, parent)
			}
		}
	})
}
