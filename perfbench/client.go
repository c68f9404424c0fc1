package main

import (
	"fmt"
	"time"

	dfs "repro"
	"repro/internal/tree"
)

// client is the benchmark's single client goroutine: a closed loop that
// submits the generated stream, waits on its Futures, and issues the step's
// point reads and analytics queries. With a tracer it records a span around
// every public call.
type client struct {
	in  *inputs
	svc *dfs.Service
	ids []dfs.GraphID
	tr  *tracer

	next, nextRead, nextQuery int
	applied                   int // updates acknowledged without error
	pend                      []pending
	items                     []dfs.BatchItem

	// record keeps per-operation latencies of the current phase, which
	// started at phaseStart.
	record            bool
	phaseStart        time.Time
	upd, reads        []sample
	coldQ, warmQ      []int64
	queried           map[queryKey]bool
	attempted, failed int
	firstErr, oracle  error
	readSeq, querySeq int
}

// sample is one operation's latency and its completion time, both in ns,
// the latter since the start of the phase.
type sample struct{ at, d int64 }

func (c *client) sample(t0, t1 time.Time) sample {
	return sample{at: int64(t1.Sub(c.phaseStart)), d: int64(t1.Sub(t0))}
}

func latencies(xs []sample) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x.d
	}
	return out
}

type pending struct {
	fut  *dfs.UpdateFuture
	t0   time.Time
	op   int64
	span int32
}

// queryKey identifies the index a query needs: the first query of a kind
// on a graph version is cold (it builds or patches that index).
type queryKey struct {
	g       int32
	version uint64
	kind    queryKind
}

func newClient(in *inputs, svc *dfs.Service, ids []dfs.GraphID) *client {
	return &client{in: in, svc: svc, ids: ids, queried: make(map[queryKey]bool)}
}

func update(o op) dfs.Update {
	k := dfs.DeleteEdge
	if o.ins {
		k = dfs.InsertEdge
	}
	return dfs.Update{Kind: k, U: int(o.u), V: int(o.v)}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *client) oracleFail(format string, args ...any) {
	if c.oracle == nil {
		c.oracle = fmt.Errorf(format, args...)
	}
}

// phase runs steps steps (0 = unbounded) or until limit elapses (0 = no
// limit), whichever comes first, and then waits for every outstanding
// update. It returns the elapsed time and the updates acknowledged.
func (c *client) phase(steps int, limit time.Duration) (time.Duration, int) {
	start := time.Now()
	c.phaseStart = start
	applied := c.applied
	for st := 0; steps == 0 || st < steps; st++ {
		if limit > 0 && time.Since(start) >= limit {
			break
		}
		if !c.step() {
			break
		}
	}
	for len(c.pend) > 0 {
		c.waitOldest()
	}
	return time.Since(start), c.applied - applied
}

// step runs one step; false means the stream is exhausted.
func (c *client) step() bool {
	s := c.in.spec
	if s.batch > 0 {
		if !c.batchStep() {
			return false
		}
	} else {
		o, ok := c.in.opAt(c.next)
		if !ok {
			return false
		}
		c.next++
		c.submit(o)
		if len(c.pend) >= s.window {
			c.waitOldest()
		}
	}
	c.doReads()
	c.doQueries()
	return true
}

func (c *client) submit(o op) {
	id := c.tr.newOp()
	root := c.tr.begin(spUpdate, -1, id)
	sp := c.tr.begin(spApply, root, id)
	t0 := time.Now()
	fut, err := c.svc.Apply(c.ids[o.g], update(o))
	c.tr.end(sp)
	c.attempted++
	if err != nil {
		c.fail(err)
		c.tr.end(root)
		return
	}
	c.pend = append(c.pend, pending{fut: fut, t0: t0, op: id, span: root})
}

func (c *client) waitOldest() {
	p := c.pend[0]
	c.pend = c.pend[:copy(c.pend, c.pend[1:])]
	sp := c.tr.begin(spWait, p.span, p.op)
	_, _, err := p.fut.Wait()
	t1 := time.Now()
	c.tr.end(sp)
	c.tr.end(p.span)
	if err != nil {
		c.fail(err)
		return
	}
	c.applied++
	if c.record {
		c.upd = append(c.upd, c.sample(p.t0, t1))
	}
}

func (c *client) batchStep() bool {
	c.items = c.items[:0]
	for len(c.items) < c.in.spec.batch {
		o, ok := c.in.opAt(c.next)
		if !ok {
			return false
		}
		c.next++
		c.items = append(c.items, dfs.BatchItem{Graph: c.ids[o.g], Update: update(o)})
	}
	id := c.tr.newOp()
	root := c.tr.begin(spUpdate, -1, id)
	sp := c.tr.begin(spApply, root, id)
	t0 := time.Now()
	futs, _ := c.svc.ApplyBatch(c.items) // every future resolves, with the error if any
	c.tr.end(sp)
	c.attempted += len(futs)
	for _, f := range futs {
		ws := c.tr.begin(spWait, root, id)
		_, _, err := f.Wait()
		t1 := time.Now()
		c.tr.end(ws)
		if err != nil {
			c.fail(err)
			continue
		}
		c.applied++
		if c.record {
			c.upd = append(c.upd, c.sample(t0, t1))
		}
	}
	c.tr.end(root)
	return true
}

// ancestorUp returns v's ancestor k levels up, stopping at v's component
// root.
func ancestorUp(t *tree.Tree, pseudo, v, k int) int {
	for ; k > 0; k-- {
		p := t.Parent[v]
		if p < 0 || p == pseudo {
			break
		}
		v = p
	}
	return v
}

// doReads issues the step's point reads. Every 16th read is checked
// against a naive parent walk on the snapshot pinned just before the call;
// no write is outstanding then, or only back-edge toggles that keep the
// tree, so the call reads the same tree.
func (c *client) doReads() {
	for r := 0; r < c.in.spec.readsPerStep; r++ {
		a := c.in.reads[c.nextRead%len(c.in.reads)]
		c.nextRead++
		id := c.ids[a.g]
		check := c.readSeq%16 == 0
		c.readSeq++
		var snap *dfs.GraphSnapshot
		if a.path || check {
			var err error
			if snap, err = c.svc.Snapshot(id); err != nil {
				c.attempted++
				c.fail(err)
				continue
			}
		}
		op := c.tr.newOp()
		var t0, t1 time.Time
		var err error
		if a.path {
			v := int(a.v)
			up := ancestorUp(snap.Tree, snap.PseudoRoot, v, int(a.k))
			sp := c.tr.begin(spPath, -1, op)
			t0 = time.Now()
			var path []int
			path, err = c.svc.Path(id, v, up)
			t1 = time.Now()
			c.tr.end(sp)
			if check && err == nil {
				checkPath(c, snap.Tree, path, v, up)
			}
		} else {
			sp := c.tr.begin(spIsAncestor, -1, op)
			t0 = time.Now()
			var ok bool
			ok, err = c.svc.IsAncestor(id, int(a.a), int(a.v))
			t1 = time.Now()
			c.tr.end(sp)
			if check && err == nil && ok != naiveIsAncestor(snap.Tree, snap.PseudoRoot, int(a.a), int(a.v)) {
				c.oracleFail("IsAncestor(%s, %d, %d) = %v disagrees with a parent walk", id, a.a, a.v, ok)
			}
		}
		c.attempted++
		if err != nil {
			c.fail(err)
			continue
		}
		if c.record {
			c.reads = append(c.reads, c.sample(t0, t1))
		}
	}
}

// doQueries issues the step's analytics queries through Service.Query.
// Every 8th answer is checked against a naive walk on the handle's tree.
func (c *client) doQueries() {
	for q := 0; q < c.in.spec.queriesPerStep; q++ {
		a := c.in.queries[c.nextQuery%len(c.in.queries)]
		c.nextQuery++
		id := c.ids[a.g]
		op := c.tr.newOp()
		root := c.tr.begin(spQuery, -1, op)
		hs := c.tr.begin(spQueryHandle, root, op)
		t0 := time.Now()
		h, err := c.svc.Query(id)
		c.tr.end(hs)
		c.attempted++
		if err != nil {
			c.tr.end(root)
			c.fail(err)
			continue
		}
		u, v, k := int(a.u), int(a.v), int(a.k)
		ms := c.tr.begin(spLCA+spanName(a.kind), root, op)
		var got any
		switch a.kind {
		case qLCA:
			got, err = h.LCA(u, v)
		case qKth:
			got, err = h.KthAncestor(v, k)
		case qAgg:
			got, err = h.SubtreeAgg(v)
		case qBicon:
			got, err = h.SameBiconnectedComponent(u, v)
		}
		t1 := time.Now()
		c.tr.end(ms)
		c.tr.end(root)
		if err != nil {
			c.fail(err)
			continue
		}
		key := queryKey{a.g, h.Version(), a.kind}
		warm := c.queried[key]
		c.queried[key] = true
		if c.record {
			if warm {
				c.warmQ = append(c.warmQ, int64(t1.Sub(t0)))
			} else {
				c.coldQ = append(c.coldQ, int64(t1.Sub(t0)))
			}
		}
		if c.querySeq%8 == 0 {
			if want, ok := naiveQuery(h.Tree(), h.PseudoRoot(), a); ok && want != got {
				c.oracleFail("%s(%s@%d, %d, %d, %d) = %v, parent walk gives %v",
					queryNames[a.kind], id, h.Version(), u, v, k, got, want)
			}
		}
		c.querySeq++
	}
}
