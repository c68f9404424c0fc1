package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	dfs "repro"
	"repro/internal/snapquery"
	"repro/internal/tree"
)

// naiveIsAncestor walks v's parent pointers up to the pseudo root.
func naiveIsAncestor(t *tree.Tree, pseudo, a, v int) bool {
	for x := v; x >= 0 && x != pseudo; x = t.Parent[x] {
		if x == a {
			return true
		}
	}
	return false
}

func checkPath(c *client, t *tree.Tree, path []int, down, up int) {
	if len(path) == 0 || path[0] != down || path[len(path)-1] != up {
		c.oracleFail("Path(%d, %d) = %v does not run from %d to %d", down, up, path, down, up)
		return
	}
	for i := 1; i < len(path); i++ {
		if t.Parent[path[i-1]] != path[i] {
			c.oracleFail("Path(%d, %d): %d is not the parent of %d", down, up, path[i], path[i-1])
			return
		}
	}
}

// naiveQuery answers an analytics query by walking the tree's parent and
// child pointers. Biconnectivity has no naive walk; ok is false for it.
func naiveQuery(t *tree.Tree, pseudo int, a queryArg) (want any, ok bool) {
	u, v, k := int(a.u), int(a.v), int(a.k)
	switch a.kind {
	case qLCA:
		for t.Level(u) > t.Level(v) {
			u = t.Parent[u]
		}
		for t.Level(v) > t.Level(u) {
			v = t.Parent[v]
		}
		for u != v {
			u, v = t.Parent[u], t.Parent[v]
		}
		if u == pseudo {
			return -1, true
		}
		return u, true
	case qKth:
		for ; k > 0 && v != pseudo; k-- {
			v = t.Parent[v]
		}
		if v == pseudo {
			return -1, true
		}
		return v, true
	case qAgg:
		agg := snapquery.Agg{MinVertex: v, MaxVertex: v}
		type frame struct{ v, depth int }
		stack := []frame{{v, 0}}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			agg.Size++
			agg.Height = max(agg.Height, f.depth)
			agg.MinVertex = min(agg.MinVertex, f.v)
			agg.MaxVertex = max(agg.MaxVertex, f.v)
			for _, ch := range t.Children(f.v) {
				stack = append(stack, frame{ch, f.depth + 1})
			}
		}
		return agg, true
	}
	return nil, false
}

// graphCounts returns how many of the first applied stream updates went to
// each graph: the version each graph's snapshot must carry.
func (in *inputs) graphCounts(applied int) []uint64 {
	out := make([]uint64, len(in.graphs))
	for i := 0; i < applied; i++ {
		o, _ := in.opAt(i)
		out[o.g]++
	}
	return out
}

// checkState verifies every graph of svc after the first applied updates:
// the snapshot's version equals the graph's acknowledged updates, its edge
// set equals the generator's mirror, its tree is a DFS tree of its graph
// (Verify), and D is exactly a fresh build's (CheckSynced).
func checkState(svc *dfs.Service, ids []dfs.GraphID, in *inputs, applied int) error {
	want := in.replayMirrors(applied)
	counts := in.graphCounts(applied)
	snaps := make([]*dfs.GraphSnapshot, len(ids))
	for i, id := range ids {
		snap, err := svc.Snapshot(id)
		if err != nil {
			return err
		}
		if snap.Version != counts[i] {
			return fmt.Errorf("%s: version %d, want %d acknowledged updates", id, snap.Version, counts[i])
		}
		if err := equalEdges(snap.Graph.Edges(), want[i]); err != nil {
			return fmt.Errorf("%s@%d: %w", id, snap.Version, err)
		}
		if err := svc.CheckSynced(id); err != nil {
			return fmt.Errorf("%s@%d: %w", id, snap.Version, err)
		}
		snaps[i] = snap
	}
	return verifyAll(snaps)
}

// verifyAll runs the full DFS-tree check of every snapshot, spread over
// GOMAXPROCS goroutines: it is the slowest oracle, and snapshots are
// immutable, so the checks share nothing.
func verifyAll(snaps []*dfs.GraphSnapshot) error {
	errs := make([]error, len(snaps))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(snaps); i = int(next.Add(1) - 1) {
				if err := snaps[i].Verify(); err != nil {
					errs[i] = fmt.Errorf("%s@%d: %w", snaps[i].ID, snaps[i].Version, err)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func equalEdges(got []dfs.Edge, want []uint64) error {
	keys := make([]uint64, len(got))
	for i, e := range got {
		keys[i] = ekey(e.U, e.V)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) != len(want) {
		return fmt.Errorf("%d edges, generator mirror has %d", len(keys), len(want))
	}
	for i := range keys {
		if keys[i] != want[i] {
			return fmt.Errorf("edge set differs from the generator mirror at (%d,%d)", keys[i]>>32, uint32(keys[i]))
		}
	}
	return nil
}

// sameTree reports whether two trees have the same parent array.
func sameTree(a, b *tree.Tree) bool {
	if len(a.Parent) != len(b.Parent) {
		return false
	}
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] || a.Present(i) != b.Present(i) {
			return false
		}
	}
	return true
}
