package tree

import (
	"math/rand"
	"testing"
)

// pseudoForest builds the shape the core maintainer indexes: comps random
// components over vertex IDs 0..n-1 with every holeEvery-th ID deleted, a
// run of headroom holes, and a pseudo root above them whose children are
// the component roots.
func pseudoForest(n, comps, holeEvery int, rng *rand.Rand) *Tree {
	pseudo := n + 8
	parent := make([]int, pseudo+1)
	present := make([]bool, pseudo+1)
	for i := range parent {
		parent[i] = None
	}
	present[pseudo] = true
	placed := make([][]int, comps) // placed[c] = present vertices of component c
	for v := 0; v < n; v++ {
		if holeEvery > 0 && v%holeEvery == holeEvery-1 {
			continue
		}
		present[v] = true
		c := rng.Intn(comps)
		if len(placed[c]) == 0 {
			parent[v] = pseudo
		} else {
			parent[v] = placed[c][rng.Intn(len(placed[c]))]
		}
		placed[c] = append(placed[c], v)
	}
	return MustBuild(pseudo, parent, present)
}

// naiveLCA walks parent pointers.
func naiveLCA(t *Tree, u, v int) int {
	seen := map[int]bool{}
	for x := u; x != None; x = t.Parent[x] {
		seen[x] = true
	}
	for x := v; ; x = t.Parent[x] {
		if seen[x] {
			return x
		}
	}
}

// naiveAncestorAtDepth walks parent pointers up to level d (-1 above the
// root; v itself when d is at or below v's level).
func naiveAncestorAtDepth(t *Tree, v, d int) int {
	for x := v; x != None; x = t.Parent[x] {
		if t.Level(x) <= d {
			return x
		}
	}
	return -1
}

// checkAgainstNaive compares tr's LCA answers with the parent walk on every
// pair of live vertices when there are few, on trials random pairs
// otherwise, checks AncestorAtDepth at every level from above the root to
// below v for every live vertex, and demands CheckIndex pass.
func checkAgainstNaive(t *testing.T, name string, tr *Tree, rng *rand.Rand, trials int) {
	t.Helper()
	if err := tr.CheckIndex(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	vs := tr.Vertices()
	for _, v := range vs {
		for d := -1; d <= tr.Level(v)+1; d++ {
			if got, want := tr.AncestorAtDepth(v, d), naiveAncestorAtDepth(tr, v, d); got != want {
				t.Fatalf("%s: AncestorAtDepth(%d,%d)=%d want %d", name, v, d, got, want)
			}
		}
	}
	check := func(u, v int) {
		if got, want := tr.LCA(u, v), naiveLCA(tr, u, v); got != want {
			t.Fatalf("%s: LCA(%d,%d)=%d want %d", name, u, v, got, want)
		}
	}
	if len(vs) <= 40 {
		for _, u := range vs {
			for _, v := range vs {
				check(u, v)
			}
		}
		return
	}
	for i := 0; i < trials; i++ {
		check(vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))])
	}
}

// TestLCAAgainstNaive covers pre-order sequences that end on, just before
// and just after a block boundary (a tree of n vertices has n positions).
func TestLCAAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 16, 17, 57, 200} {
		tr := randomTree(n, rng)
		checkAgainstNaive(t, "random", tr, rng, 2000)
	}
}

// TestLCAHolesAndPseudoForest indexes trees with deleted vertex slots and
// the pseudo-rooted forest core builds, where the root's children are
// component roots and the headroom slots below the root are holes.
func TestLCAHolesAndPseudoForest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 6, 9, 30, 200} {
		for _, comps := range []int{1, 3} {
			for _, holeEvery := range []int{0, 2, 5} {
				tr := pseudoForest(n, comps, holeEvery, rng)
				checkAgainstNaive(t, "pseudo forest", tr, rng, 2000)
			}
		}
	}
}

// TestCheckSyncedRejectsOtherTree pins that the oracle is not vacuous: an
// index of one tree fails CheckIndex on another tree over the same slots.
// The forgery installs a's index as b's before b's first query, through
// b's own once, so b never builds its own.
func TestCheckSyncedRejectsOtherTree(t *testing.T) {
	a := MustBuild(0, []int{None, 0, 1, 2}, nil)
	b := MustBuild(0, []int{None, 0, 0, 2}, nil)
	forged := a.index()
	b.ixOnce.Do(func() { b.ix = *forged })
	if err := b.CheckIndex(); err == nil {
		t.Fatal("exact index of another tree passed CheckIndex")
	}
}

func TestLCAChain(t *testing.T) {
	parent := []int{None, 0, 1, 2, 3}
	tr := MustBuild(0, parent, nil)
	if tr.LCA(4, 2) != 2 {
		t.Fatalf("chain LCA(4,2)=%d", tr.LCA(4, 2))
	}
	if tr.LCA(0, 4) != 0 {
		t.Fatalf("chain LCA(0,4)=%d", tr.LCA(0, 4))
	}
	if tr.LCA(3, 3) != 3 {
		t.Fatalf("LCA(v,v)=%d", tr.LCA(3, 3))
	}
}

func TestSingleVertexTree(t *testing.T) {
	tr := MustBuild(0, []int{None}, nil)
	if tr.LCA(0, 0) != 0 {
		t.Fatal("singleton LCA broken")
	}
}

// FuzzLCA decodes the fuzz bytes into a parent array — byte v-1 either
// deletes vertex v (a hole) or hangs it under an earlier live vertex — and
// checks Build's LCA answers against the parent walk on every pair, and
// AncestorAtDepth against it at every level of every vertex. Both must also
// answer exactly like the Euler-tour reference index.
func FuzzLCA(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 7, 1, 15, 2, 2, 23, 3, 0, 1, 9, 31, 4, 4, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		n := len(data) + 1
		parent := make([]int, n)
		present := make([]bool, n)
		parent[0], present[0] = None, true
		live := []int{0}
		for v := 1; v < n; v++ {
			b := int(data[v-1])
			if b%8 == 7 {
				parent[v] = None // hole
				continue
			}
			parent[v], present[v] = live[(b/8)%len(live)], true
			live = append(live, v)
		}
		tr, err := Build(0, parent, present)
		if err != nil {
			t.Fatalf("decoded parent array rejected: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		checkAgainstNaive(t, "fuzz", tr, rng, 4000)
		checkAgainstEuler(t, tr)
	})
}
