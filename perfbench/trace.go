package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanName names the public call a span wraps. Spans are recorded by the
// benchmark around its own calls into each layer; the program itself is
// not instrumented.
type spanName uint8

const (
	spSetup         spanName = iota // one set-up: OpenService .. last CreateGraph
	spOpen                          // OpenService
	spCreate                        // Service.CreateGraph
	spUpdate                        // one update, submit to resolve
	spApply                         // Service.Apply / Service.ApplyBatch
	spWait                          // Future.Wait
	spIsAncestor                    // Service.IsAncestor
	spPath                          // Service.Path
	spQuery                         // one analytics query
	spQueryHandle                   // Service.Query
	spLCA                           // QueryHandle.LCA
	spKth                           // QueryHandle.KthAncestor
	spAgg                           // QueryHandle.SubtreeAgg
	spBicon                         // QueryHandle.SameBiconnectedComponent
	spClose                         // Service.Close
	spRecover                       // OpenService .. WaitRecovered
	spWaitRecovered                 // Service.WaitRecovered
	spCoreApply                     // core.DynamicDFS.Apply (layer replay)
	spMutate                        // graph.Persistent.InsertEdge / DeleteEdge
	spWriteCkpt                     // wal.WriteCheckpoint
	spLoadCkpt                      // wal.LoadCheckpoints
	spRestore                       // core.NewDynamicRestored
	spTreeIsAnc                     // 64 tree.Tree.IsAncestor calls
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"setup", "service.OpenService", "service.CreateGraph", "update", "service.Apply",
	"future.Wait", "service.IsAncestor", "service.Path", "query", "service.Query",
	"handle.LCA", "handle.KthAncestor", "handle.SubtreeAgg", "handle.SameBiconnectedComponent",
	"service.Close", "recover", "service.WaitRecovered", "core.Apply",
	"graph.Persistent.mutate", "wal.WriteCheckpoint", "wal.LoadCheckpoints",
	"core.NewDynamicRestored", "tree.IsAncestor.x64",
}

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch; parent is the index of the enclosing span or -1; spans of one
// client operation share op.
type span struct {
	name       spanName
	parent     int32
	op         int64
	start, end int64
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

func (t *tracer) begin(name spanName, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(t.epoch)), end: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// dur returns the duration of closed span i.
func (t *tracer) dur(i int32) time.Duration {
	return time.Duration(t.spans[i].end - t.spans[i].start)
}

// durations returns the durations (ns) of every closed span named name.
func (t *tracer) durations(name spanName) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

func sum(xs []int64) time.Duration {
	var t int64
	for _, x := range xs {
		t += x
	}
	return time.Duration(t)
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: duration minus the part covered by direct children. Children
// of one span never overlap (the client has one goroutine), so coverage is
// the sum of their durations.
func (t *tracer) selfTimes() (total, self [numSpanNames]int64, count [numSpanNames]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d - child[i]
		count[s.name]++
	}
	return
}

// write stores every span as one tab-separated line and a per-name summary
// of counts, totals and self times at the end of the file.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "# name\tparent\top\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.parent, s.op, s.start, s.end)
	}
	total, self, count := t.selfTimes()
	names := make([]int, 0, numSpanNames)
	for i := range spanNames {
		if count[i] > 0 {
			names = append(names, i)
		}
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintln(w, "# summary: name\tcount\ttotal_ms\tself_ms")
	for _, i := range names {
		fmt.Fprintf(w, "# %s\t%d\t%.3f\t%.3f\n", spanNames[i], count[i], float64(total[i])/1e6, float64(self[i])/1e6)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
