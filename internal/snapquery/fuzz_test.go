package snapquery

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tree"
)

// byteIntner decodes a fuzzed byte string into the choices of
// applyRandomUpdate. Each draw consumes one byte (two when n > 256); once
// the bytes run out it counts upward, so a rejection loop such as "pick a
// live vertex" still terminates.
type byteIntner struct {
	data []byte
	k    int
}

func (b *byteIntner) Intn(n int) int {
	switch {
	case n > 256 && len(b.data) >= 2:
		v := int(b.data[0])<<8 | int(b.data[1])
		b.data = b.data[2:]
		return v % n
	case len(b.data) > 0:
		v := int(b.data[0])
		b.data = b.data[1:]
		return v % n
	}
	b.k++
	return b.k % n
}

// FuzzSnapqueryVersions decodes a fuzzed byte string into a version chain:
// the first byte picks the base graph, the rest drives applyRandomUpdate's
// update mix on a maintainer with little headroom (so pseudo-root
// relocations renumber the tree). After every step the handle over the
// maintainer's tree must pass CheckSynced and answer exactly like a fresh
// handle over a tree rebuilt from the same parent array, which derives
// every index itself, and its subtree aggregates and tree paths must equal
// naiveAgg and naivePath, which walk the tree and share no code with the
// handle's pre-order scans.
func FuzzSnapqueryVersions(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{19, 3, 3, 3, 3, 3, 9, 9, 9, 6, 6, 6, 6, 6, 6})
	f.Add([]byte{200, 9, 1, 9, 2, 9, 3, 0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 6 + int(data[0])%26
		g := graph.GnpConnected(n, 3.0/float64(n), rand.New(rand.NewSource(int64(data[0]))))
		dd := core.New(g, core.Options{RebuildD: true, Headroom: 4})
		src := &byteIntner{data: data[1:]}
		for step := 0; step < 48 && len(src.data) > 0; step++ {
			if !applyRandomUpdate(t, dd, src) {
				continue
			}
			h := New(dd.Frozen(), dd.Tree(), dd.PseudoRoot())
			h.Warm()
			if err := h.CheckSynced(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			sameAnswers(t, step, h, New(dd.Frozen(), rebuilt(dd.Tree()), dd.PseudoRoot()))
		}
	})
}

// rebuilt builds tr afresh from its parent array and presence, so the
// result shares no array, and no index, with tr.
func rebuilt(tr *tree.Tree) *tree.Tree {
	present := make([]bool, tr.N())
	for v := range present {
		present[v] = tr.Present(v)
	}
	return tree.MustBuild(tr.Root, tr.Parent, present)
}

// sameAnswers compares every per-vertex answer of h against fresh, a
// handle built from scratch over the same snapshot, plus one pairwise
// query per vertex. SubtreeAgg and TreePath are also held to the naive
// walks, since fresh answers them with the same scans as h.
func sameAnswers(t *testing.T, step int, h, fresh *Handle) {
	t.Helper()
	live := liveVertices(h.Tree(), h.PseudoRoot())
	for i, u := range live {
		v := live[(7*i+3)%len(live)]
		check := func(op string, got, want any, gerr, werr error) {
			t.Helper()
			if (gerr == nil) != (werr == nil) || !equalAnswer(got, want) {
				t.Fatalf("step %d: %s(%d,%d) = %v/%v, want %v/%v", step, op, u, v, got, gerr, want, werr)
			}
		}
		gl, ge := h.LCA(u, v)
		wl, we := fresh.LCA(u, v)
		check("LCA", gl, wl, ge, we)
		gk, ge := h.KthAncestor(u, i%5)
		wk, we := fresh.KthAncestor(u, i%5)
		check("KthAncestor", gk, wk, ge, we)
		gk, ge = h.AncestorAtDepth(u, i%7)
		wk, we = fresh.AncestorAtDepth(u, i%7)
		check("AncestorAtDepth", gk, wk, ge, we)
		gd, ge := h.Depth(u)
		wd, we := fresh.Depth(u)
		check("Depth", gd, wd, ge, we)
		ga, ge := h.SubtreeAgg(u)
		wa, we := fresh.SubtreeAgg(u)
		check("SubtreeAgg", ga, wa, ge, we)
		check("SubtreeAgg naive", ga, naiveAgg(h.Tree(), u), ge, nil)
		gp, ge := h.TreePath(u, v)
		wp, we := fresh.TreePath(u, v)
		check("TreePath", gp, wp, ge, we)
		if np := naivePath(h.Tree(), u, v, h.PseudoRoot()); np != nil {
			check("TreePath naive", gp, np, ge, nil)
		} else if ge == nil {
			t.Fatalf("step %d: TreePath(%d,%d) = %v across components", step, u, v, gp)
		}
		gc, ge := h.BiconnectedComponentOf(u)
		wc, we := fresh.BiconnectedComponentOf(u)
		check("BiconnectedComponentOf", gc, wc, ge, we)
	}
	if !slices.Equal(h.ArticulationPoints(), fresh.ArticulationPoints()) ||
		!slices.Equal(h.Bridges(), fresh.Bridges()) {
		t.Fatalf("step %d: articulation points or bridges differ from a fresh build", step)
	}
}

func equalAnswer(a, b any) bool {
	if pa, ok := a.([]int); ok {
		return slices.Equal(pa, b.([]int))
	}
	return a == b
}
