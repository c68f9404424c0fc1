package tree

import (
	"math/rand"
	"slices"
	"testing"
)

// chain builds the path tree 0->1->...->n-1 rooted at 0.
func chain(n int) *Tree {
	parent := make([]int, n)
	parent[0] = None
	for v := 1; v < n; v++ {
		parent[v] = v - 1
	}
	return MustBuild(0, parent, nil)
}

// randomTree builds a random recursive tree on n vertices rooted at 0.
func randomTree(n int, rng *rand.Rand) *Tree {
	parent := make([]int, n)
	parent[0] = None
	for v := 1; v < n; v++ {
		parent[v] = rng.Intn(v)
	}
	return MustBuild(0, parent, nil)
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(0, []int{1, 0}, nil); err == nil {
		t.Fatal("root with parent accepted")
	}
	if _, err := Build(0, []int{None, 2, 1}, nil); err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := Build(0, []int{None, None}, nil); err == nil {
		t.Fatal("second root (unreachable vertex) accepted")
	}
	if _, err := Build(0, []int{None, 5}, nil); err == nil {
		t.Fatal("out-of-range parent accepted")
	}
	if _, err := Build(1, []int{None, None}, []bool{false, true}); err != nil {
		t.Fatalf("hole with None parent rejected: %v", err)
	}
	if _, err := Build(0, []int{None, 0}, []bool{true, false}); err == nil {
		t.Fatal("hole with parent accepted")
	}
	if _, err := Build(0, []int{None, None, 1}, []bool{true, false, true}); err == nil {
		t.Fatal("parent that is a hole accepted")
	}
	if _, err := Build(0, []int{None, None}, []bool{false, true}); err == nil {
		t.Fatal("root that is a hole accepted")
	}
}

func TestChainNumbering(t *testing.T) {
	tr := chain(5)
	for v := 0; v < 5; v++ {
		if tr.Level(v) != v {
			t.Fatalf("Level(%d)=%d want %d", v, tr.Level(v), v)
		}
		if tr.Size(v) != 5-v {
			t.Fatalf("Size(%d)=%d want %d", v, tr.Size(v), 5-v)
		}
		if tr.Post(v) != 4-v {
			t.Fatalf("Post(%d)=%d want %d", v, tr.Post(v), 4-v)
		}
		if tr.Pre(v) != v {
			t.Fatalf("Pre(%d)=%d want %d", v, tr.Pre(v), v)
		}
	}
}

func TestAncestorProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTree(80, rng)
	// Reference ancestor check by walking parents.
	isAnc := func(a, v int) bool {
		for ; v != None; v = tr.Parent[v] {
			if v == a {
				return true
			}
		}
		return false
	}
	for trial := 0; trial < 500; trial++ {
		a, v := rng.Intn(80), rng.Intn(80)
		if got, want := tr.IsAncestor(a, v), isAnc(a, v); got != want {
			t.Fatalf("IsAncestor(%d,%d)=%v want %v", a, v, got, want)
		}
	}
}

func TestPostOrderContiguousSubtrees(t *testing.T) {
	// Post-order of T(v) must be the contiguous interval
	// [Post(v)-Size(v)+1, Post(v)] — the property D's binary search uses.
	rng := rand.New(rand.NewSource(13))
	tr := randomTree(120, rng)
	for v := 0; v < 120; v++ {
		lo, hi := tr.Post(v)-tr.Size(v)+1, tr.Post(v)
		for _, u := range tr.SubtreeVertices(v, nil) {
			if tr.Post(u) < lo || tr.Post(u) > hi {
				t.Fatalf("Post(%d)=%d outside [%d,%d] of subtree %d", u, tr.Post(u), lo, hi, v)
			}
		}
	}
}

func TestParentPostGreater(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := randomTree(100, rng)
	for v := 1; v < 100; v++ {
		if tr.Post(tr.Parent[v]) <= tr.Post(v) {
			t.Fatalf("post(parent(%d)) <= post(%d)", v, v)
		}
	}
}

func TestPathHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tr := randomTree(60, rng)
	for trial := 0; trial < 200; trial++ {
		v := rng.Intn(60)
		lvl := rng.Intn(tr.Level(v) + 1)
		a := tr.AncestorAtLevel(v, lvl)
		if tr.Level(a) != lvl || !tr.IsAncestor(a, v) {
			t.Fatalf("AncestorAtLevel(%d,%d)=%d bad", v, lvl, a)
		}
		p := tr.PathUp(v, a)
		if len(p) != tr.PathLen(a, v) {
			t.Fatalf("PathUp len %d != PathLen %d", len(p), tr.PathLen(a, v))
		}
		if p[0] != v || p[len(p)-1] != a {
			t.Fatalf("PathUp endpoints %v", p)
		}
		for i := 1; i < len(p); i++ {
			if tr.Parent[p[i-1]] != p[i] {
				t.Fatalf("PathUp not a parent chain at %d", i)
			}
		}
		if a != v {
			c := tr.ChildToward(a, v)
			if tr.Parent[c] != a || !tr.IsAncestor(c, v) {
				t.Fatalf("ChildToward(%d,%d)=%d bad", a, v, c)
			}
		}
	}
}

func TestSubtreeVerticesAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := randomTree(70, rng)
	for v := 0; v < 70; v++ {
		vs := tr.SubtreeVertices(v, nil)
		if len(vs) != tr.Size(v) {
			t.Fatalf("SubtreeVertices(%d) len %d != Size %d", v, len(vs), tr.Size(v))
		}
		for _, u := range vs {
			if !tr.IsAncestor(v, u) {
				t.Fatalf("%d in SubtreeVertices(%d) but not descendant", u, v)
			}
		}
	}
}

func TestHoles(t *testing.T) {
	parent := []int{None, 0, None, 1}
	present := []bool{true, true, false, true}
	tr := MustBuild(0, parent, present)
	if tr.Live() != 3 || tr.Present(2) {
		t.Fatalf("Live=%d Present(2)=%v", tr.Live(), tr.Present(2))
	}
	if tr.Post(2) != -1 {
		t.Fatalf("hole has post %d", tr.Post(2))
	}
	vs := tr.Vertices()
	if len(vs) != 3 {
		t.Fatalf("Vertices()=%v", vs)
	}
}

// holeyTree builds a random tree over n slots rooted at a pseudo root in the
// last slot, the shape the maintainers run on: about a fifth of the other
// slots are holes, and each live vertex hangs from a random earlier live
// vertex or from the pseudo root.
func holeyTree(n int, rng *rand.Rand) *Tree {
	root := n - 1
	parent := make([]int, n)
	present := make([]bool, n)
	live := []int{root}
	for v := range parent {
		parent[v] = None
		if v == root || rng.Intn(5) == 0 {
			continue
		}
		present[v] = true
		parent[v] = live[rng.Intn(len(live))]
		live = append(live, v)
	}
	present[root] = true
	return MustBuild(root, parent, present)
}

// TestSubtreeWindowsMatchReferences checks the pre-order windows behind
// SubtreeVertices and IsAncestor against a recursive subtree walk and a
// parent walk, on trees with holes and a pseudo root, hole arguments
// included.
func TestSubtreeWindowsMatchReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(90)
		tr := holeyTree(n, rng)
		var walk func(v int, buf []int) []int
		walk = func(v int, buf []int) []int {
			buf = append(buf, v)
			for _, c := range tr.Children(v) {
				buf = walk(c, buf)
			}
			return buf
		}
		isAnc := func(a, v int) bool {
			if !tr.Present(a) || !tr.Present(v) {
				return false
			}
			for ; v != None; v = tr.Parent[v] {
				if v == a {
					return true
				}
			}
			return false
		}
		for a := 0; a < n; a++ {
			if tr.Present(a) {
				buf := []int{-7} // SubtreeVertices appends after existing entries
				if got, want := tr.SubtreeVertices(a, buf), walk(a, []int{-7}); !slices.Equal(got, want) {
					t.Fatalf("trial %d: SubtreeVertices(%d) = %v, want %v", trial, a, got, want)
				}
			}
			for v := 0; v < n; v++ {
				if got, want := tr.IsAncestor(a, v), isAnc(a, v); got != want {
					t.Fatalf("trial %d: IsAncestor(%d,%d) = %v, want %v", trial, a, v, got, want)
				}
			}
		}
	}
}
