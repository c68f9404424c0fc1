package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refTree is a test-only reference numbering that shares no code with
// Build: children as one slice per vertex in ID order, and pre, post, level
// and size from a recursive DFS.
type refTree struct {
	children               [][]int
	pre, post, level, size []int
	order                  []int // pre-order sequence
	vertices               []int // present vertices in ID order
}

// buildRef numbers the forest the way Build must, or reports why the parent
// array is not a tree: an invalid root, a root with a parent, a hole with a
// parent, a parent that is out of range or a hole, or a present vertex the
// root does not reach (a parent cycle is one).
func buildRef(root int, parent []int, present []bool) (*refTree, error) {
	n := len(parent)
	isLive := func(v int) bool { return v >= 0 && v < n && (present == nil || present[v]) }
	if !isLive(root) {
		return nil, fmt.Errorf("invalid root %d", root)
	}
	if parent[root] != None {
		return nil, fmt.Errorf("root has parent %d", parent[root])
	}
	r := &refTree{
		children: make([][]int, n),
		pre:      make([]int, n),
		post:     make([]int, n),
		level:    make([]int, n),
		size:     make([]int, n),
	}
	for v := 0; v < n; v++ {
		r.pre[v], r.post[v], r.level[v] = -1, -1, -1
		if !isLive(v) {
			if parent[v] != None {
				return nil, fmt.Errorf("hole %d has parent %d", v, parent[v])
			}
			continue
		}
		r.vertices = append(r.vertices, v)
		if v == root {
			continue
		}
		if !isLive(parent[v]) {
			return nil, fmt.Errorf("vertex %d has parent %d, not a live vertex", v, parent[v])
		}
		r.children[parent[v]] = append(r.children[parent[v]], v)
	}
	postC := 0
	var dfs func(v, lvl int)
	dfs = func(v, lvl int) {
		r.pre[v], r.level[v], r.size[v] = len(r.order), lvl, 1
		r.order = append(r.order, v)
		for _, c := range r.children[v] {
			dfs(c, lvl+1)
			r.size[v] += r.size[c]
		}
		r.post[v] = postC
		postC++
	}
	dfs(root, 0)
	if len(r.order) != len(r.vertices) {
		return nil, fmt.Errorf("%d of %d live vertices reachable", len(r.order), len(r.vertices))
	}
	return r, nil
}

// checkAgainstRef demands that every accessor of tr answer like the
// reference on every vertex slot, FirstChild and NextSibling included, and
// that tr's lazily built indexes pass CheckIndex. Post is checked on every
// slot before the first PostLabels call builds the labels.
func checkAgainstRef(t *testing.T, tr *Tree, ref *refTree, parent []int) {
	t.Helper()
	n := len(parent)
	if tr.N() != n || tr.Live() != len(ref.vertices) {
		t.Fatalf("N=%d Live=%d, reference %d/%d", tr.N(), tr.Live(), n, len(ref.vertices))
	}
	if !slices.Equal(tr.Parent, parent) {
		t.Fatalf("Parent=%v, want %v", tr.Parent, parent)
	}
	if got := tr.Vertices(); !slices.Equal(got, ref.vertices) {
		t.Fatalf("Vertices()=%v, want %v", got, ref.vertices)
	}
	if got := tr.PreOrder(); !slices.Equal(got, ref.order) {
		t.Fatalf("PreOrder()=%v, want %v", got, ref.order)
	}
	for v := 0; v < n; v++ {
		if got, want := tr.Present(v), ref.pre[v] >= 0; got != want {
			t.Fatalf("Present(%d)=%v, want %v", v, got, want)
		}
		kids := ref.children[v]
		if got := tr.Children(v); !slices.Equal(got, kids) {
			t.Fatalf("Children(%d)=%v, want %v", v, got, kids)
		}
		// next[i] is the reference sibling after kids[i-1]; next[0] the first child.
		next := append(slices.Clone(kids), None)
		if want := next[0]; tr.FirstChild(v) != want {
			t.Fatalf("FirstChild(%d)=%d, want %d", v, tr.FirstChild(v), want)
		}
		for i, c := range kids {
			if want := next[i+1]; tr.NextSibling(c) != want {
				t.Fatalf("NextSibling(%d)=%d, want %d (children of %d: %v)", c, tr.NextSibling(c), want, v, kids)
			}
		}
		if ref.pre[v] < 0 || v == tr.Root {
			if got := tr.NextSibling(v); got != None {
				t.Fatalf("NextSibling(%d)=%d for a hole or the root, want None", v, got)
			}
		}
		if tr.Pre(v) != ref.pre[v] || tr.Post(v) != ref.post[v] || tr.Level(v) != ref.level[v] || tr.Size(v) != ref.size[v] {
			t.Fatalf("vertex %d: pre/post/level/size %d/%d/%d/%d, want %d/%d/%d/%d", v,
				tr.Pre(v), tr.Post(v), tr.Level(v), tr.Size(v), ref.pre[v], ref.post[v], ref.level[v], ref.size[v])
		}
		if ref.pre[v] >= 0 {
			want := ref.order[ref.pre[v] : ref.pre[v]+ref.size[v]]
			if got := tr.SubtreeVertices(v, nil); !slices.Equal(got, want) {
				t.Fatalf("SubtreeVertices(%d)=%v, want %v", v, got, want)
			}
		}
	}
	for v, p := range tr.PostLabels() {
		if p != int32(ref.post[v]) {
			t.Fatalf("PostLabels()[%d]=%d, want %d", v, p, ref.post[v])
		}
	}
	if len(tr.PostLabels()) != n {
		t.Fatalf("PostLabels() has %d labels for %d slots", len(tr.PostLabels()), n)
	}
	if tr.Present(-1) || tr.Present(n) {
		t.Fatal("out-of-range slot reported present")
	}
	if err := tr.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

// FuzzTreeBuild decodes the fuzz bytes into a parent array and checks Build
// against the reference: both must reject it, or Build's tree must answer
// every accessor like the reference. data[0] picks the shape: bit 0 mirrors
// the IDs (root in the last slot, parents above their children, the
// maintainers' pseudo-root layout), bit 1 passes a nil mask when there are
// no holes, and bits 2–4 pick a corruption applied at the slots data[1] and
// data[2] name: none, a cycle (its vertices unreachable from the root), a
// hole with a parent, a parent that is a hole, a parent out of range, an
// invalid root, a second root, or a root with a parent. Each later byte
// either deletes its vertex or hangs it under an earlier live vertex.
func FuzzTreeBuild(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	for mode := 1; mode < 8; mode++ {
		f.Add([]byte{byte(mode << 2), 3, 5, 0, 7, 1, 15, 2, 2, 23, 3, 0, 1, 9, 31})
		f.Add([]byte{byte(mode<<2 | 1), 6, 2, 8, 0, 7, 16, 1, 23, 24, 2, 31, 3})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		flags, a, b := data[0], int(data[1]), int(data[2])
		data = data[3:]
		if len(data) > 80 {
			data = data[:80]
		}
		n := len(data) + 1
		parent := make([]int, n)
		present := make([]bool, n)
		parent[0], present[0] = None, true
		live, holes := []int{0}, []int(nil)
		for v := 1; v < n; v++ {
			c := int(data[v-1])
			if c%8 == 7 {
				parent[v] = None
				holes = append(holes, v)
				continue
			}
			parent[v], present[v] = live[(c/8)%len(live)], true
			live = append(live, v)
		}
		root := 0
		if flags&1 != 0 { // mirror: ID v becomes n-1-v
			mp, mq := make([]int, n), make([]bool, n)
			for v := range parent {
				mq[n-1-v] = present[v]
				mp[n-1-v] = None
				if parent[v] != None {
					mp[n-1-v] = n - 1 - parent[v]
				}
			}
			parent, present, root = mp, mq, n-1
			for i := range live {
				live[i] = n - 1 - live[i]
			}
			for i := range holes {
				holes[i] = n - 1 - holes[i]
			}
		}
		pick := func(s []int, i int) int { return s[i%len(s)] }
		switch flags >> 2 & 7 {
		case 1: // cycle: hang an ancestor (or y itself) under y
			y := pick(live, b)
			x := y
			for k := 0; k < a%4 && parent[x] != None && parent[parent[x]] != None; k++ {
				x = parent[x]
			}
			if x != root {
				parent[x] = y
			}
		case 2: // hole with a parent
			if len(holes) > 0 {
				parent[pick(holes, a)] = pick(live, b)
			}
		case 3: // parent is a hole
			if len(holes) > 0 {
				parent[pick(live, a)] = pick(holes, b)
			}
		case 4: // parent out of range
			parent[pick(live, a)] = []int{n, n + b, -2, -1 - b}[b%4]
		case 5: // invalid root: out of range or a hole
			root = []int{-1, n, n + b, pick(append(holes, root), a)}[b%4]
		case 6: // a second root
			parent[pick(live, a)] = None
		case 7: // root with a parent
			parent[root] = pick(live, b)
		}
		mask := present
		if flags&2 != 0 && len(holes) == 0 {
			mask = nil
		}
		ref, rerr := buildRef(root, parent, mask)
		tr, err := Build(root, parent, mask)
		if (err != nil) != (rerr != nil) {
			t.Fatalf("Build error %v, reference error %v (root %d, parent %v, present %v)", err, rerr, root, parent, mask)
		}
		if err != nil {
			return
		}
		checkAgainstRef(t, tr, ref, parent)
	})
}

// BenchmarkTreeBuild times Build on a random recursive tree (shallow, with
// many leaves) and on a chain (one vertex per level, the deepest stack).
// lca=none is Build alone, what every update that changes the tree pays;
// lca=first adds the first LCA query, which builds the index, what a cold
// query on a new tree pays.
func BenchmarkTreeBuild(b *testing.B) {
	for _, n := range []int{4096, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		random := make([]int, n)
		path := make([]int, n)
		random[0], path[0] = None, None
		for v := 1; v < n; v++ {
			random[v], path[v] = rng.Intn(v), v-1
		}
		for _, shape := range []struct {
			name   string
			parent []int
		}{{"random", random}, {"chain", path}} {
			for _, lca := range []string{"none", "first"} {
				b.Run(fmt.Sprintf("n=%d/shape=%s/lca=%s", n, shape.name, lca), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						tr, err := Build(0, shape.parent, nil)
						if err != nil {
							b.Fatal(err)
						}
						if lca == "first" {
							tr.LCA(n-1, n/2)
						}
					}
				})
			}
		}
	}
}
