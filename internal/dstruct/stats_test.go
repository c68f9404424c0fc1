package dstruct

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/pram"
)

// statsWorkload builds a patched D and a deterministic query list
// exercising both EdgeToWalk flavours over small and large source sets.
func statsWorkload(t *testing.T, seed int64) (*D, []WalkQuery) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 900 + rng.Intn(400)
	g := graph.GnpConnected(n, 5.0/float64(n), rng)
	d := Build(g, baseline.StaticDFS(g), pram.NewMachine(g.NumVertices()))
	applyRandomPatches(g, rng, d)
	var qs []WalkQuery
	for q := 0; q < 16; q++ {
		walk, onWalk := randomWalkInTree(g, rng)
		if len(walk) == 0 {
			continue
		}
		sources := bigSourceSet(g, onWalk)
		if q%3 == 0 {
			sources = sources[:rng.Intn(len(sources)+1)]
		}
		qs = append(qs, WalkQuery{
			Sources:  sources,
			Walk:     walk,
			FromEnd:  rng.Intn(2) == 0,
			BySource: q%4 == 3,
		})
	}
	return d, qs
}

func runQuery(d *D, q WalkQuery, st *Stats) {
	if q.BySource {
		d.EdgeToWalkBySource(q.Sources, q.Walk, q.FromEnd, st)
	} else {
		d.EdgeToWalk(q.Sources, q.Walk, q.FromEnd, st)
	}
}

// TestPerCallStatsSumToSharedTotals is the refactor's accounting check: the
// per-call accumulators, summed, must equal the totals a single shared
// accumulator records across the same query sequence — exactly what the old
// d.Stats field used to accumulate.
func TestPerCallStatsSumToSharedTotals(t *testing.T) {
	for _, seed := range []int64{211, 223} {
		d, qs := statsWorkload(t, seed)
		var shared Stats
		for _, q := range qs {
			runQuery(d, q, &shared)
		}
		var summed Stats
		for _, q := range qs {
			var st Stats
			runQuery(d, q, &st)
			summed.Add(st)
		}
		if shared != summed {
			t.Fatalf("seed %d: shared accumulator %+v != summed per-call %+v", seed, shared, summed)
		}
		if shared.WalkQueries != int64(len(qs)) {
			t.Fatalf("seed %d: %d walk queries recorded for %d issued", seed, shared.WalkQueries, len(qs))
		}
		var batched Stats
		d.EdgeToWalkBatch(qs, &batched)
		if batched != shared {
			t.Fatalf("seed %d: batch stats %+v != sequential %+v", seed, batched, shared)
		}
	}
}

// TestBySourceStatsStopAtFirstHit pins the search effort of a BySource
// query over a large source set: it must equal a loop that queries one
// source at a time and stops at the first hit, so no source after the
// first hit is ever searched.
func TestBySourceStatsStopAtFirstHit(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	checked := 0
	for trial := 0; trial < 40 && checked < 8; trial++ {
		n := 900 + rng.Intn(400)
		g := graph.GnpConnected(n, 5.0/float64(n), rng)
		d := Build(g, baseline.StaticDFS(g), pram.NewMachine(g.NumVertices()))
		walk, onWalk := randomWalkInTree(g, rng)
		if len(walk) == 0 {
			continue
		}
		sources := bigSourceSet(g, onWalk)
		rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
		if len(sources) < 256 {
			t.Fatalf("trial %d: only %d sources", trial, len(sources))
		}
		fromEnd := trial%2 == 0
		var got Stats
		h, ok := d.EdgeToWalkBySource(sources, walk, fromEnd, &got)

		want := Stats{WalkQueries: 1, RunsSplit: int64(d.SplitRunCount(walk))}
		first := -1
		for i, u := range sources {
			var one Stats
			hu, oku := d.EdgeToWalk([]int{u}, walk, fromEnd, &one)
			one.WalkQueries, one.RunsSplit = 0, 0
			want.Add(one)
			if oku {
				if !ok || hu != h {
					t.Fatalf("trial %d: first hit from source %d is %v, BySource returned %v/%v", trial, i, hu, h, ok)
				}
				first = i
				break
			}
		}
		if first < 0 {
			if ok {
				t.Fatalf("trial %d: BySource hit %v, but no single source has one", trial, h)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d (first hit at source %d of %d): stats %+v, one-source loop %+v",
				trial, first, len(sources), got, want)
		}
		if first < len(sources)/2 {
			checked++ // the unscanned tail spans more than half the sources
		}
	}
	if checked == 0 {
		t.Fatal("no trial put its first hit in the first half of the sources")
	}
}

// TestConcurrentQueriesDistinctAccumulators runs many goroutines against
// one D (no patches in flight), each with a private Stats; with the query
// path read-only this must be race-free (checked under -race) and every
// accumulator must match the serial rerun of its own queries.
func TestConcurrentQueriesDistinctAccumulators(t *testing.T) {
	d, qs := statsWorkload(t, 227)
	if len(qs) == 0 {
		t.Skip("empty workload")
	}
	const readers = 8
	got := make([]Stats, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < len(qs); i += readers {
				runQuery(d, qs[i], &got[r])
			}
		}(r)
	}
	wg.Wait()
	want := make([]Stats, readers)
	for r := 0; r < readers; r++ {
		for i := r; i < len(qs); i += readers {
			runQuery(d, qs[i], &want[r])
		}
	}
	for r := range got {
		if got[r] != want[r] {
			t.Fatalf("reader %d: concurrent stats %+v != serial %+v", r, got[r], want[r])
		}
	}
}
