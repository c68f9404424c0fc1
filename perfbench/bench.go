package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	dfs "repro"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string // WAL directories and the trace file go here
	tiny     bool   // test size: small graphs, fixed step counts
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// quantile returns the q-quantile of xs by the nearest-rank method; xs is
// sorted in place. 0 when empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return float64(xs[max(0, min(i, len(xs)-1))])
}

// numSlices is the number of equal time slices the timed phase is cut into.
const numSlices = 5

// bySlice groups the latencies of samples by the slice of the phase (of
// length d) in which each completed.
func bySlice(xs []sample, d time.Duration) [numSlices][]int64 {
	var out [numSlices][]int64
	for _, x := range xs {
		i := min(int(x.at*numSlices/int64(d)), numSlices-1)
		out[i] = append(out[i], x.d)
	}
	return out
}

// sliceMedian returns the median over slices of f.
func sliceMedian(s [numSlices][]int64, f func([]int64) float64) float64 {
	vals := make([]float64, numSlices)
	for i, xs := range s {
		vals[i] = f(xs)
	}
	return median(vals)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup opens a service and creates every graph. It returns the process
// CPU time used from OpenService until the last CreateGraph returns.
func setup(in *inputs, ids []dfs.GraphID, cfg dfs.ServiceConfig, tr *tracer) (*dfs.Service, time.Duration, error) {
	op := tr.newOp()
	root := tr.begin(spSetup, -1, op)
	cpu0 := cpuTime()
	sp := tr.begin(spOpen, root, op)
	svc, err := dfs.OpenService(cfg)
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("open service: %w", err)
	}
	for i, g := range in.graphs {
		sp := tr.begin(spCreate, root, op)
		_, err := svc.CreateGraph(ids[i], g)
		tr.end(sp)
		if err != nil {
			svc.Close()
			return nil, 0, fmt.Errorf("create %s: %w", ids[i], err)
		}
	}
	cpu := cpuTime() - cpu0
	tr.end(root)
	return svc, cpu, nil
}

// run executes one benchmark run. Infrastructure failures return an error;
// a failed correctness oracle returns a result with Correct false and the
// reason in oracleErr.
func run(o options, log io.Writer) (res *result, oracleErr error, err error) {
	began := time.Now()
	logf := func(format string, args ...any) {
		fmt.Fprintf(log, "%6.2fs  "+format+"\n", append([]any{time.Since(began).Seconds()}, args...)...)
	}
	s, ok := specs[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.tiny {
		s = s.tiny()
	}
	// The traced run and the test run fixed-size phases, so their exact
	// counts repeat for a seed; the untraced run measures for o.seconds.
	phaseSteps := s.traceSteps * o.seconds
	if o.tiny {
		phaseSteps = s.traceSteps
	}
	streamSteps := s.warmup + s.stepsPerS*o.seconds
	if o.trace || o.tiny {
		streamSteps = s.warmup + 2*phaseSteps
	}
	in, err := generate(s, o.seed, streamSteps)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]dfs.GraphID, s.graphs)
	for i := range ids {
		ids[i] = dfs.GraphID(fmt.Sprintf("g%03d", i))
	}
	walRoot := ""
	if s.wal {
		if walRoot, err = os.MkdirTemp(o.workdir, "wal-"); err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(walRoot)
	}
	cfgFor := func(rep int) dfs.ServiceConfig {
		cfg := dfs.ServiceConfig{Shards: 2, Workers: 1}
		if s.wal {
			// Appends reach the page cache and the device fsyncs only at
			// checkpoint rotations and Close: the WAL must live inside the
			// checkout, on a disk whose fsync latency swings ±40% from run
			// to run, and device latency is deliberately unmeasured.
			cfg.WAL = &dfs.WALConfig{
				Dir:          filepath.Join(walRoot, fmt.Sprint(rep)),
				Policy:       dfs.WALSyncInterval,
				SyncInterval: time.Hour,
			}
		}
		return cfg
	}
	logf("inputs generated")

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups []float64
	var svc *dfs.Service
	var heap0 uint64
	last := s.setups - 1
	for rep := 0; rep <= last; rep++ {
		if rep == last {
			heap0 = liveHeap()
		} else {
			runtime.GC()
		}
		sv, d, err := setup(in, ids, cfgFor(rep), tr)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if rep == last {
			svc = sv
			break
		}
		if err := sv.Close(); err != nil {
			return nil, nil, err
		}
		if s.wal {
			os.RemoveAll(cfgFor(rep).WAL.Dir)
		}
	}
	defer func() { svc.Close() }() // ErrClosed when the run closed it already

	logf("%d set-ups, median %.3fs CPU", len(setups), median(setups))
	res = &result{Metrics: map[string]metric{}}
	c := newClient(in, svc, ids)
	c.phase(s.warmup, 0)
	logf("warm-up done")
	var lay *layerRun
	if o.trace {
		lay = &layerRun{s: s, in: in, ids: ids, tr: tr, walRoot: walRoot}
		if err := lay.phases(c, svc, phaseSteps); err != nil {
			return nil, nil, err
		}
	} else {
		runtime.GC()
		c.record = true
		limit, steps := time.Duration(o.seconds)*time.Second, 0
		if o.tiny {
			limit, steps = 0, phaseSteps
		}
		steal, cpu0 := stealTicks(), cpuTime()
		elapsed, n := c.phase(steps, limit)
		steal, cpu := stealTicks()-steal, cpuTime()-cpu0
		// Each latency is the median over equal time slices of the phase,
		// so a burst of host CPU steal that slows one slice does not move it.
		upd, reads := bySlice(c.upd, elapsed), bySlice(c.reads, elapsed)
		res.set("setup_s", "s", median(setups))
		res.set("update_cpu_us", "us", float64(cpu.Microseconds())/float64(n))
		res.set("update_p50_us", "us", sliceMedian(upd, func(xs []int64) float64 { return quantile(xs, 0.50) / 1e3 }))
		res.set("read_p50_us", "us", sliceMedian(reads, func(xs []int64) float64 { return quantile(xs, 0.50) / 1e3 }))
		logf("timed phase: %d updates, %d reads, %d queries in %.2fs (%.2fs CPU); host CPU steal %d ticks",
			n, len(c.reads), len(c.coldQ)+len(c.warmQ), elapsed.Seconds(), cpu.Seconds(), steal)
		c.upd, c.reads, c.coldQ, c.warmQ, c.queried = nil, nil, nil, nil, nil
		heap := float64(liveHeap()) - float64(heap0)
		res.set("heap_mb", "MB", heap/(1<<20))
	}

	// Final-state oracles. The durable workload closes the service and
	// checks the state a reopen recovers; the others check the live state.
	oracleErr = c.oracle
	if c.failed > 0 && oracleErr == nil {
		oracleErr = fmt.Errorf("%d operations failed, first: %w", c.failed, c.firstErr)
	}
	if lay != nil {
		logf("traced phases done")
		if err := lay.replay(c, svc); err != nil && oracleErr == nil {
			oracleErr = err
		}
		logf("layer replay done")
	}
	if s.wal {
		if err := reopen(svc, cfgFor(last), ids, in, c.next, lay); err != nil && oracleErr == nil {
			oracleErr = err
		}
	} else if err := checkState(svc, ids, in, c.next); err != nil && oracleErr == nil {
		oracleErr = err
	}
	logf("final-state checks done")
	if lay != nil {
		lay.report(res)
		path := filepath.Join(o.workdir, "trace-"+o.workload+".tsv")
		if err := tr.write(path); err != nil {
			return nil, nil, err
		}
		logf("%d spans written to %s", len(tr.spans), path)
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = oracleErr == nil
	return res, oracleErr, nil
}

// reopen closes the durable service, reopens its WAL directory, waits for
// recovery and checks the recovered state against the acknowledged stream.
func reopen(svc *dfs.Service, cfg dfs.ServiceConfig, ids []dfs.GraphID, in *inputs, applied int, lay *layerRun) error {
	var tr *tracer
	if lay != nil {
		tr = lay.tr
	}
	sp := tr.begin(spClose, -1, tr.newOp())
	err := svc.Close()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if lay != nil {
		if err := lay.restore(cfg.WAL.Dir); err != nil {
			return err
		}
	}
	op := tr.newOp()
	root := tr.begin(spRecover, -1, op)
	sp = tr.begin(spOpen, root, op)
	re, err := dfs.OpenService(cfg)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return fmt.Errorf("reopen: %w", err)
	}
	defer re.Close()
	sp = tr.begin(spWaitRecovered, root, op)
	re.WaitRecovered()
	tr.end(sp)
	tr.end(root)
	if lay != nil {
		m := re.Metrics()
		lay.replayed = m.WALReplayed
		lay.replayHist = m.WALReplayHist
	}
	if err := checkState(re, ids, in, applied); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return nil
}
