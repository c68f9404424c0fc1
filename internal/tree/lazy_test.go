package tree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestLazyIndexesConcurrentFirstUse has several goroutines make the first
// LCA, AncestorAtDepth, PostLabels and CheckIndex calls on one fresh tree,
// each starting with a different one, and checks every answer against the
// Euler-tour reference and the recursive reference numbering. Under -race
// it pins that the indexes materialise once, safely, whichever query comes
// first.
func TestLazyIndexesConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		tr := holeyTree(n, rng)
		present := make([]bool, n)
		for v := range present {
			present[v] = tr.Present(v)
		}
		ref, err := buildRef(tr.Root, tr.Parent, present)
		if err != nil {
			t.Fatal(err)
		}
		euler := buildEuler(tr) // reads only Children and Level: builds no index
		vs := tr.Vertices()
		wantPost := make([]int32, n)
		for v := range wantPost {
			wantPost[v] = int32(ref.post[v])
		}

		calls := []func() error{
			func() error {
				for _, u := range vs {
					for _, v := range vs {
						if got, want := tr.LCA(u, v), euler.lca(u, v); got != want {
							t.Errorf("LCA(%d,%d)=%d, Euler reference %d", u, v, got, want)
						}
					}
				}
				return nil
			},
			func() error {
				for _, v := range vs {
					for d := -1; d <= tr.Level(v); d++ {
						if got, want := tr.AncestorAtDepth(v, d), euler.ancestorAtDepth(v, d); got != want {
							t.Errorf("AncestorAtDepth(%d,%d)=%d, Euler reference %d", v, d, got, want)
						}
					}
				}
				return nil
			},
			func() error {
				if got := tr.PostLabels(); !slices.Equal(got, wantPost) {
					t.Errorf("PostLabels()=%v, want %v", got, wantPost)
				}
				return nil
			},
			tr.CheckIndex,
		}
		const workers = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for k := range calls {
					if err := calls[(w+k)%len(calls)](); err != nil {
						t.Errorf("worker %d: %v", w, err)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.Fatalf("trial %d (n=%d)", trial, n)
		}
	}
}
