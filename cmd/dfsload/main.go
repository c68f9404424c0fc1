// Command dfsload drives the multi-graph serving layer (dfs.Service) with
// synthetic tenant traffic: a fleet of writers streams edge updates through
// Apply/ApplyBatch while readers hammer snapshot queries (IsAncestor, Path,
// periodic full DFS verification) and — for a -querymix slice of reads —
// the snapshot analytics engine (LCA, k-th ancestors, subtree aggregates,
// tree paths, biconnectivity) through Service.Query, then the per-shard
// metrics are printed with query-handle hit rates.
//
// Usage:
//
//	dfsload                                  # defaults: GOMAXPROCS shards
//	dfsload -shards 8 -graphs 32 -n 2048 \
//	        -writers 8 -readers 16 -batch 4 -querymix 50 -duration 10s
//	dfsload -debugaddr localhost:6060 -duration 1m   # then:
//	curl localhost:6060/debug/service                # live histograms+traces
//	curl localhost:6060/debug/service/tenants        # hottest graphs + meters
//	curl localhost:6060/debug/service/history        # sampled time-series
//	curl localhost:6060/debug/metrics                # Prometheus exposition
//
// With -debugaddr the service's debug endpoint (metrics JSON with per-shard
// latency percentiles, slowest update traces, per-tenant cost attribution,
// the sampler's time-series, a Prometheus text exposition, expvar, pprof)
// is served for the whole run; -sample sets the sampler interval (the width
// of one history window). The final report prints p50/p99 update and query
// latency, the top-K hottest graphs with their per-tenant meters (-hot),
// the stage-time breakdown of the update loops, and the top slowest traces.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dfs "repro"
)

func main() {
	var (
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "service shards (update loops)")
		graphs   = flag.Int("graphs", 4*runtime.GOMAXPROCS(0), "tenant graphs")
		n        = flag.Int("n", 512, "vertices per graph")
		deg      = flag.Float64("deg", 4.0, "average degree of the initial graphs")
		writers  = flag.Int("writers", runtime.GOMAXPROCS(0), "writer goroutines")
		readers  = flag.Int("readers", 2*runtime.GOMAXPROCS(0), "reader goroutines")
		batch    = flag.Int("batch", 4, "updates per ApplyBatch round (1 = plain Apply)")
		verifyPc = flag.Int("verify", 2, "percent of reads running full DFS verification")
		queryMix = flag.Int("querymix", 25, "percent of reads using the snapshot analytics engine (LCA/bicon/subtree via Service.Query)")
		sample   = flag.Duration("sample", 0, "metrics sampler interval — the width of one /debug/service/history window (0 = default 1s)")
		hotK     = flag.Int("hot", 8, "rows in the final hottest-graphs table (0 disables)")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		seed     = flag.Int64("seed", 1, "workload seed")
		skew     = flag.Float64("skew", 0, "Zipf exponent for writer graph selection so a hot tenant emerges (>1 required; 0 = uniform)")
		migrate  = flag.Duration("migrate", 0, "force a live migration of a rotating graph to a random shard every interval (0 = off)")
		dbgAddr  = flag.String("debugaddr", "", "serve the live debug endpoint (JSON metrics, slow traces, pprof) on this address for the whole run, e.g. localhost:6060")
		walDir   = flag.String("wal", "", "enable durability: per-shard write-ahead log + checkpoints in this directory")
		walSync  = flag.String("walfsync", "batch", "WAL fsync policy: batch (group commit), always, interval")
		walEvery = flag.Int("walcheckpoint", 0, "checkpoint a shard every N applied updates (0 = default)")
		ackDir   = flag.String("acklog", "", "crash-harness mode: writers record intended and acknowledged updates in this directory")
		recover_ = flag.Bool("recoververify", false, "recover from -wal, verify the replayed state against -acklog, and exit")
	)
	flag.Parse()
	if *skew != 0 && *skew <= 1 {
		fmt.Fprintf(os.Stderr, "-skew %v: the Zipf exponent must be > 1 (0 disables)\n", *skew)
		os.Exit(2)
	}

	cfg := dfs.ServiceConfig{Shards: *shards, SampleInterval: *sample}
	if *walDir != "" {
		var policy = dfs.WALSyncBatch
		switch *walSync {
		case "batch":
		case "always":
			policy = dfs.WALSyncAlways
		case "interval":
			policy = dfs.WALSyncInterval
		default:
			fmt.Fprintf(os.Stderr, "unknown -walfsync %q (want batch, always or interval)\n", *walSync)
			os.Exit(2)
		}
		cfg.WAL = &dfs.WALConfig{Dir: *walDir, Policy: policy, CheckpointEvery: *walEvery}
	}
	svc, err := dfs.OpenService(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "open service: %v\n", err)
		os.Exit(1)
	}
	if *recover_ {
		os.Exit(recoverVerify(svc, *ackDir, *graphs, *n, *deg, *seed))
	}
	if *dbgAddr != "" {
		go func() {
			fmt.Printf("debug endpoint on http://%s/debug/service\n", *dbgAddr)
			if err := http.ListenAndServe(*dbgAddr, svc.DebugHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "debug endpoint: %v\n", err)
			}
		}()
	}
	svc.WaitRecovered()
	ids := make([]dfs.GraphID, *graphs)
	setup := time.Now()
	recovered := 0
	for i := range ids {
		ids[i] = dfs.GraphID(fmt.Sprintf("tenant-%04d", i))
		rng := rand.New(rand.NewSource(*seed + int64(i)))
		g := dfs.GnpConnected(*n, *deg/float64(*n), rng)
		switch _, err := svc.CreateGraph(ids[i], g); {
		case err == nil:
		case errors.Is(err, dfs.ErrGraphExists):
			// Durable restart: the graph came back from the WAL directory.
			recovered++
		case errors.Is(err, dfs.ErrClosed):
			fmt.Fprintln(os.Stderr, "service closed during setup")
			os.Exit(1)
		default:
			fmt.Fprintf(os.Stderr, "create %s: %v\n", ids[i], err)
			os.Exit(1)
		}
	}
	fmt.Printf("created %d graphs (%d recovered; n=%d, deg=%.1f) on %d shards in %v\n",
		*graphs, recovered, *n, *deg, *shards, time.Since(setup).Round(time.Millisecond))

	var (
		stop                      atomic.Bool
		stopCh                    = make(chan struct{})
		applied, conflicts        atomic.Int64
		reads, verifies, readErrs atomic.Int64
		idxQueries                atomic.Int64
		wgW, wgR                  sync.WaitGroup
		fatal                     = make(chan error, *writers+*readers)
	)

	// Writers: each owns a disjoint slice of the graphs (round-robin), keeps
	// a mirror per graph for valid update generation, and submits coalesced
	// cross-graph batches. Mirror divergence is impossible: a graph has
	// exactly one writer, and the shard loop applies in submission order.
	for w := 0; w < *writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			// Crash-harness mode: record every update before submitting it
			// (intent) and again once durably acknowledged (ack). The intent
			// file reaches the page cache before the service sees the update,
			// so after kill -9 the recovered per-graph state must be a prefix
			// of the intent sequence at least as long as the acked prefix —
			// exactly what -recoververify checks. Each run also records a
			// baseline marker per owned graph (the version its mirror started
			// from), so the verifier can splice epochs: intents left in flight
			// by an earlier kill are excluded instead of being replayed into
			// the middle of the next epoch's sequence.
			var ack *os.File
			if *ackDir != "" {
				f, err := os.OpenFile(
					filepath.Join(*ackDir, fmt.Sprintf("writer-%03d.log", w)),
					os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					fatal <- err
					return
				}
				ack = f
				defer f.Close()
			}
			rng := rand.New(rand.NewSource(*seed + 10_000 + int64(w)))
			var mine []dfs.GraphID
			mirrors := map[dfs.GraphID]*dfs.Graph{}
			for i := w; i < len(ids); i += *writers {
				snap, err := svc.Snapshot(ids[i])
				if err != nil {
					fatal <- err
					return
				}
				mine = append(mine, ids[i])
				mirrors[ids[i]] = snap.Graph
				if ack != nil {
					fmt.Fprintf(ack, "R %s %d\n", ids[i], snap.Version)
				}
			}
			if len(mine) == 0 {
				return
			}
			// Skewed load: rank 0 of each writer's slice becomes its hot
			// tenant, drawing a Zipf-sized share of the writer's updates, so
			// the hottest-graphs ranking and the rebalancer have a real
			// imbalance to see instead of uniform noise.
			var zipf *rand.Zipf
			if *skew > 1 && len(mine) > 1 {
				zipf = rand.NewZipf(rng, *skew, 1, uint64(len(mine)-1))
			}
			for !stop.Load() {
				items := make([]dfs.BatchItem, 0, *batch)
				for len(items) < *batch {
					pick := rng.Intn(len(mine))
					if zipf != nil {
						pick = int(zipf.Uint64())
					}
					id := mine[pick]
					mirror := mirrors[id]
					var u dfs.Update
					var err error
					if e, ok := dfs.RandomNonEdge(mirror, rng); ok && rng.Intn(2) == 0 {
						mirror, err = mirror.InsertEdge(e.U, e.V)
						u = dfs.Update{Kind: dfs.InsertEdge, U: e.U, V: e.V}
					} else if e, ok := dfs.RandomEdge(mirror, rng); ok {
						mirror, err = mirror.DeleteEdge(e.U, e.V)
						u = dfs.Update{Kind: dfs.DeleteEdge, U: e.U, V: e.V}
					} else {
						continue
					}
					if err != nil {
						fatal <- err
						return
					}
					mirrors[id] = mirror
					items = append(items, dfs.BatchItem{Graph: id, Update: u})
				}
				if ack != nil {
					for _, it := range items {
						fmt.Fprintf(ack, "I %s %d %d %d\n", it.Graph, it.Update.Kind, it.Update.U, it.Update.V)
					}
				}
				var futs []*dfs.UpdateFuture
				var err error
				if *batch == 1 {
					fut, aerr := svc.Apply(items[0].Graph, items[0].Update)
					futs, err = []*dfs.UpdateFuture{fut}, aerr
				} else {
					futs, err = svc.ApplyBatch(items)
				}
				if err != nil {
					return // service closing
				}
				for i, fut := range futs {
					if _, _, err := fut.Wait(); err != nil {
						conflicts.Add(1)
					} else {
						applied.Add(1)
						if ack != nil {
							fmt.Fprintf(ack, "A %s\n", items[i].Graph)
						}
					}
				}
			}
		}(w)
	}

	// Readers: snapshot queries across all tenants; a configurable slice of
	// reads run the full DFS verifier against the frozen snapshot.
	for r := 0; r < *readers; r++ {
		wgR.Add(1)
		go func(r int) {
			defer wgR.Done()
			rng := rand.New(rand.NewSource(*seed + 20_000 + int64(r)))
			for !stop.Load() {
				id := ids[rng.Intn(len(ids))]
				snap, err := svc.Snapshot(id)
				if err != nil {
					readErrs.Add(1)
					continue
				}
				u, v := rng.Intn(*n), rng.Intn(*n)
				if snap.Tree.Present(u) && snap.Tree.Present(v) {
					if _, err := snap.IsAncestor(u, v); err != nil {
						readErrs.Add(1)
					}
					if snap.Tree.IsAncestor(v, u) {
						if _, err := snap.Path(u, v); err != nil {
							readErrs.Add(1)
						}
					}
				}
				if rng.Intn(100) < *queryMix {
					// Analytics read: version-pinned derived-index queries.
					h, qerr := svc.Query(id)
					if qerr != nil {
						readErrs.Add(1)
					} else if h.Tree().Present(u) && h.Tree().Present(v) {
						nq := int64(0)
						l, lerr := h.LCA(u, v)
						if lerr != nil {
							readErrs.Add(1)
						}
						nq++
						if l >= 0 {
							if _, err := h.TreePath(u, v); err != nil {
								readErrs.Add(1)
							}
							nq++
						}
						if _, err := h.KthAncestor(u, rng.Intn(8)); err != nil {
							readErrs.Add(1)
						}
						nq++
						if _, err := h.SubtreeAgg(v); err != nil {
							readErrs.Add(1)
						}
						nq++
						if _, err := h.SameBiconnectedComponent(u, v); err != nil {
							readErrs.Add(1)
						}
						nq++
						idxQueries.Add(nq)
					}
				}
				reads.Add(1)
				if rng.Intn(100) < *verifyPc {
					verifies.Add(1)
					if err := snap.Verify(); err != nil {
						fatal <- fmt.Errorf("snapshot %s@%d failed verification: %w", id, snap.Version, err)
						return
					}
				}
			}
		}(r)
	}

	// Forced migrations: rotate through the graphs, shipping one to a random
	// shard every -migrate interval, so live handoffs (and, under the crash
	// harness, kills landing inside the migration window) happen without
	// waiting for the rebalancer's hysteresis. Migrating to the graph's
	// current shard is a no-op; errors after shutdown began are expected.
	var wgM sync.WaitGroup
	if *migrate > 0 {
		wgM.Add(1)
		go func() {
			defer wgM.Done()
			mrng := rand.New(rand.NewSource(*seed + 30_000))
			tick := time.NewTicker(*migrate)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				case <-tick.C:
				}
				id := ids[i%len(ids)]
				if err := svc.MigrateGraph(id, mrng.Intn(*shards)); err != nil && !stop.Load() {
					fmt.Fprintf(os.Stderr, "migrate %s: %v\n", id, err)
				}
			}
		}()
	}

	deadline := time.After(*duration)
	select {
	case err := <-fatal:
		fmt.Fprintf(os.Stderr, "FATAL: %v\n", err)
		stop.Store(true)
		close(stopCh)
		wgW.Wait()
		wgR.Wait()
		wgM.Wait()
		os.Exit(1)
	case <-deadline:
	}
	stop.Store(true)
	close(stopCh)
	wgW.Wait()
	wgR.Wait()
	wgM.Wait()
	if err := svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close: %v\n", err)
	}

	secs := duration.Seconds()
	fmt.Printf("\n%-8s %7s %7s %5s %8s %12s %10s %10s %14s %12s\n",
		"shard", "graphs", "queue", "hwm", "updates", "updates/sec", "apply p50", "apply p99", "pram depth", "pram work")
	m := svc.Metrics()
	for _, sm := range m.Shards {
		fmt.Printf("%-8d %7d %3d/%-3d %5d %8d %12.0f %10v %10v %14d %12d\n",
			sm.Shard, sm.Graphs, sm.QueueDepth, sm.QueueCap, sm.QueueHighWater,
			sm.Updates, sm.UpdatesPerSec,
			time.Duration(sm.ApplyHist.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(sm.ApplyHist.Quantile(0.99)).Round(time.Microsecond),
			sm.PRAMDepth, sm.PRAMWork)
	}

	// Per-tenant cost attribution: the most expensive graphs by cumulative
	// apply cost, ranked by the per-shard Space-Saving sketches with each
	// one's exact meter sample alongside.
	if hot := svc.HotGraphs(*hotK); len(hot) > 0 {
		fmt.Printf("\n%-4s %-14s %5s %8s %8s %12s %10s %9s %12s\n",
			"hot", "graph", "shard", "updates", "rejects", "apply", "wal bytes", "idx build", "est cost")
		for i, hg := range hot {
			fmt.Printf("%-4d %-14s %5d %8d %8d %12v %10d %9d %12v\n",
				i+1, hg.Graph, hg.Shard, hg.Applied, hg.Rejected,
				hg.ApplyTime.Round(time.Microsecond), hg.WALBytes,
				hg.IndexBuilds,
				time.Duration(hg.EstCost).Round(time.Microsecond))
		}
	}

	// Latency distributions across all shards (merged histograms).
	pq := func(h dfs.HistogramSnapshot) string {
		if h.Count == 0 {
			return "(no samples)"
		}
		return fmt.Sprintf("p50 %v  p90 %v  p99 %v  max %v  (n=%d)",
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.90)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(h.Max).Round(time.Microsecond), h.Count)
	}
	fmt.Printf("\nlatency  update apply    %s\n", pq(m.ApplyHist))
	fmt.Printf("         mailbox wait    %s\n", pq(m.MailboxWaitHist))
	fmt.Printf("         snapshot publish %s\n", pq(m.PublishHist))
	fmt.Printf("         query resolve   %s\n", pq(m.QueryResolveHist))
	fmt.Printf("         index build     %s\n", pq(m.IndexBuildHist))

	// Where the update loops' wall-clock went, stage by stage.
	if total := m.Stages.Total(); total > 0 {
		pc := func(d time.Duration) string {
			return fmt.Sprintf("%v (%4.1f%%)", d.Round(time.Millisecond), 100*float64(d)/float64(total))
		}
		fmt.Printf("\nstages   wait %s  plan %s  engine %s  dmaint %s  publish %s\n",
			pc(m.Stages.Wait), pc(m.Stages.Plan), pc(m.Stages.Engine),
			pc(m.Stages.DMaint), pc(m.Stages.Publish))
	}

	// The slowest retained update traces, stage by stage.
	if slow := svc.SlowTraces(); len(slow) > 0 {
		if len(slow) > 3 {
			slow = slow[:3]
		}
		fmt.Printf("\nslowest updates:\n")
		for i, tr := range slow {
			fmt.Printf("  #%d %v  %s %s on %s (shard %d, batch %d): %s, moved %d",
				i+1, tr.Total.Round(time.Microsecond), tr.Kind, stageLine(tr),
				tr.Graph, tr.Shard, tr.Batch, tr.Outcome, tr.Moved)
			if tr.Err != "" {
				fmt.Printf(" [%s]", tr.Err)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\napplied %d updates (%.0f/sec), %d conflicts; %d reads (%.0f/sec), %d verified snapshots, %d read errors\n",
		applied.Load(), float64(applied.Load())/secs,
		conflicts.Load(),
		reads.Load(), float64(reads.Load())/secs,
		verifies.Load(), readErrs.Load())
	// Live handoffs observed this run: forced (-migrate), rebalancer-driven,
	// or none — with the write pause each one imposed on its tenant.
	if m.Migrations+m.MigrationFailures > 0 || *migrate > 0 {
		fmt.Printf("migrations %d completed, %d failed; %d graphs routed off their hash shard; pause %s\n",
			m.Migrations, m.MigrationFailures, m.RoutedGraphs, pq(m.MigrationPauseHist))
	}
	if lookups := m.IndexCacheHits + m.IndexCacheMisses; lookups > 0 {
		fmt.Printf("index queries %d (%.0f/sec); handles: %.1f%% already on their snapshot over %d lookups, %d index builds in %v\n",
			idxQueries.Load(), float64(idxQueries.Load())/secs,
			100*float64(m.IndexCacheHits)/float64(lookups), lookups,
			m.IndexBuilds, m.IndexBuildTime.Round(time.Microsecond))
	}
}

// intent is one update a crash-harness writer recorded before submitting.
type intent struct {
	kind, u, v int
}

// segment is one crash epoch's worth of a graph's intent log: the version
// the epoch's writer mirror started from (0 for a fresh graph, the
// recovered version after a restart) plus the intents and acks recorded
// until the next kill. Updates a kill left in flight live at the end of a
// segment and are excluded once the next segment's baseline shows they
// were never applied.
type segment struct {
	base    int
	intents []intent
	acked   int
}

// recoverVerify is the crash-harness verifier. After a kill -9 of a
// `dfsload -wal -acklog` run, main reopens the durable service and calls
// this with the same workload flags. It splits each graph's recorded
// intents into crash epochs at the R baseline markers, replays each
// epoch's applied prefix against a regenerated initial graph, and requires
// the recovered state to match exactly:
//
//   - per epoch, acked <= applied <= intents (no durably acknowledged
//     update may be lost; nothing beyond what was submitted may appear);
//     an epoch's applied count is pinned by the next epoch's baseline —
//     or by the recovered version for the final epoch — so intents a kill
//     left in flight are excluded rather than replayed;
//   - the recovered edge set equals the spliced epoch-prefix replay
//     (writers own disjoint graphs and shards apply in submission order,
//     so each prefix is deterministic);
//   - the recovered tree passes full DFS verification and the maintainer's
//     internal structure passes CheckSynced.
//
// Because every run records baselines, the same -wal/-acklog pair verifies
// across arbitrarily many load/kill/recover cycles, including shard-count
// changes between them.
func recoverVerify(svc *dfs.Service, ackDir string, graphs, n int, deg float64, seed int64) int {
	defer svc.Close()
	svc.WaitRecovered()
	if ackDir == "" {
		fmt.Fprintln(os.Stderr, "-recoververify needs -acklog")
		return 2
	}
	files, err := filepath.Glob(filepath.Join(ackDir, "writer-*.log"))
	if err != nil || len(files) == 0 {
		fmt.Fprintf(os.Stderr, "no intent logs under %s (err=%v)\n", ackDir, err)
		return 2
	}
	sort.Strings(files)
	segs := map[dfs.GraphID][]*segment{}
	torn := 0
	// cur tracks each graph's open segment while scanning one file; lines in
	// a file are chronological, so an R baseline closes the previous epoch's
	// segment and opens the next. Logs from before baselines existed (or a
	// torn R line) fall into an implicit base-0 segment.
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "open %s: %v\n", path, err)
			return 2
		}
		cur := map[dfs.GraphID]*segment{}
		open := func(id dfs.GraphID, base int) *segment {
			s := &segment{base: base}
			segs[id] = append(segs[id], s)
			cur[id] = s
			return s
		}
		at := func(id dfs.GraphID) *segment {
			if s := cur[id]; s != nil {
				return s
			}
			return open(id, 0)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			switch {
			case len(fields) == 3 && fields[0] == "R":
				var base int
				if _, err := fmt.Sscanf(fields[2], "%d", &base); err != nil {
					torn++
					continue
				}
				open(dfs.GraphID(fields[1]), base)
			case len(fields) == 5 && fields[0] == "I":
				var in intent
				if _, err := fmt.Sscanf(sc.Text(), "I %s %d %d %d",
					new(string), &in.kind, &in.u, &in.v); err != nil {
					torn++ // torn tail line: page-cache write cut mid-record
					continue
				}
				id := dfs.GraphID(fields[1])
				s := at(id)
				s.intents = append(s.intents, in)
			case len(fields) == 2 && fields[0] == "A":
				at(dfs.GraphID(fields[1])).acked++
			default:
				torn++
			}
		}
		f.Close()
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "RECOVERY FAILED: "+format+"\n", args...)
		return 1
	}
	var verified, replayed, beyondAck int
	for i := 0; i < graphs; i++ {
		id := dfs.GraphID(fmt.Sprintf("tenant-%04d", i))
		rng := rand.New(rand.NewSource(seed + int64(i)))
		mirror := dfs.GnpConnected(n, deg/float64(n), rng)
		gsegs := segs[id]
		// Baselines only grow (a graph's version never goes backward across
		// restarts), so sorting by base puts the epochs in order; the stable
		// sort keeps file order for the one tie that can happen — a creation
		// killed before its ack, re-created from scratch at base 0, where the
		// dead incarnation's segment correctly contributes zero applied.
		sort.SliceStable(gsegs, func(a, b int) bool { return gsegs[a].base < gsegs[b].base })
		snap, err := svc.Snapshot(id)
		if errors.Is(err, dfs.ErrUnknownGraph) {
			for _, s := range gsegs {
				if s.acked > 0 {
					return fail("%s: %d acked updates but the graph did not survive", id, s.acked)
				}
			}
			continue // killed before the graph's creation was acknowledged
		}
		if err != nil {
			return fail("%s: snapshot: %v", id, err)
		}
		v := int(snap.Version)
		if len(gsegs) == 0 {
			gsegs = []*segment{{}} // created but no writer traffic recorded
		}
		if gsegs[0].base != 0 {
			return fail("%s: first recorded epoch starts at version %d, not 0 (acklog dir does not cover the graph's history)",
				id, gsegs[0].base)
		}
		totalAcked := 0
		for k, s := range gsegs {
			// The epoch's applied count is pinned by the next epoch's
			// baseline — its writer mirror began at exactly the version the
			// restart recovered — or, for the live epoch, by the version
			// recovered now. Intents past it were in flight at the kill and
			// never applied; replaying them would corrupt the mirror.
			applied := v - s.base
			if k+1 < len(gsegs) {
				applied = gsegs[k+1].base - s.base
			}
			if applied < s.acked {
				return fail("%s: epoch from version %d applied %d updates but %d were durably acked",
					id, s.base, applied, s.acked)
			}
			if applied < 0 {
				return fail("%s: recovered at version %d behind a later epoch's baseline %d", id, v, s.base)
			}
			if applied > len(s.intents) {
				return fail("%s: epoch from version %d applied %d updates beyond its %d recorded intents",
					id, s.base, applied, len(s.intents))
			}
			for j, in := range s.intents[:applied] {
				var aerr error
				switch {
				case in.kind == int(dfs.InsertEdge):
					mirror, aerr = mirror.InsertEdge(in.u, in.v)
				case in.kind == int(dfs.DeleteEdge):
					mirror, aerr = mirror.DeleteEdge(in.u, in.v)
				default:
					aerr = fmt.Errorf("unexpected update kind %d", in.kind)
				}
				if aerr != nil {
					return fail("%s: epoch from version %d: intent %d/%d does not replay: %v",
						id, s.base, j+1, applied, aerr)
				}
			}
			totalAcked += s.acked
		}
		if mirror.NumEdges() != snap.Graph.NumEdges() || mirror.NumVertices() != snap.Graph.NumVertices() {
			return fail("%s: recovered graph has %d edges / %d vertices, intent replay has %d / %d",
				id, snap.Graph.NumEdges(), snap.Graph.NumVertices(), mirror.NumEdges(), mirror.NumVertices())
		}
		for _, e := range mirror.Edges() {
			if !snap.Graph.HasEdge(e.U, e.V) {
				return fail("%s: edge (%d,%d) present in intent replay, missing after recovery", id, e.U, e.V)
			}
		}
		if err := snap.Verify(); err != nil {
			return fail("%s: recovered tree is not a DFS tree: %v", id, err)
		}
		if err := svc.CheckSynced(id); err != nil {
			return fail("%s: maintainer out of sync after replay: %v", id, err)
		}
		verified++
		replayed += v
		beyondAck += v - totalAcked
	}
	m := svc.Metrics()
	// Placement: every surviving graph must live on exactly one shard. A
	// kill inside a migration window that left a graph duplicated (source
	// retirement lost) or dropped (route flipped to a copy that never
	// recovered) shows up as a shard-ownership sum that disagrees with the
	// count of graphs the routing table can reach.
	owned := 0
	for _, sm := range m.Shards {
		owned += sm.Graphs
	}
	if owned != verified {
		return fail("shards own %d graphs in total, but %d graphs are reachable — a crash left a graph on zero or two shards",
			owned, verified)
	}
	fmt.Printf("RECOVERY OK: %d/%d graphs verified (%d routed off their hash shard), %d updates live (%d beyond last ack), "+
		"%d WAL records replayed, %d skipped, %d torn tails, %d orphans, %d torn acklog lines\n",
		verified, graphs, m.RoutedGraphs, replayed, beyondAck,
		m.WALReplayed, m.WALSkipped, m.WALTornTails, m.WALOrphanRecords, torn)
	return 0
}

// stageLine renders a trace's nonzero stages compactly, pipeline order.
func stageLine(tr dfs.UpdateTrace) string {
	out := "["
	for _, sp := range tr.Stages() {
		if sp.D <= 0 {
			continue
		}
		if len(out) > 1 {
			out += " "
		}
		out += fmt.Sprintf("%s %v", sp.Stage, sp.D.Round(time.Microsecond))
	}
	return out + "]"
}
