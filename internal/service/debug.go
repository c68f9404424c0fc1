package service

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
)

// debugPayload is the /debug/service document: one consistent sample of the
// full metrics tree plus the retained slowest traces, JSON-encoded.
type debugPayload struct {
	Now        time.Time   `json:"now"`
	Shards     int         `json:"shards"`
	Metrics    Metrics     `json:"metrics"`
	SlowTraces []obs.Trace `json:"slow_traces"`
}

// DebugHandler returns an http.Handler exposing the service's live
// internals:
//
//	/debug/service          full Metrics sample + slowest retained traces (JSON)
//	/debug/service/traces   just the slowest-trace ring, slowest first (JSON)
//	/debug/service/tenants  hottest graphs by cumulative apply cost with each
//	                        one's exact per-tenant counters (JSON; ?k=N caps
//	                        the ranking, default 32)
//	/debug/service/history  per-shard sampled time-series — update rate,
//	                        queue depth/high-water, windowed apply p99, WAL
//	                        bytes and sync p99 (JSON, oldest point first)
//	/debug/metrics          Prometheus text exposition (format v0.0.4)
//	/debug/pprof/           CPU/heap/goroutine/block profiles
//
// Every endpoint samples atomics and read locks only — hitting it never
// blocks a shard's update loop. Mount it on any mux or serve it directly:
//
//	go http.ListenAndServe("localhost:6060", svc.DebugHandler())
//
// The pprof handlers are the package-level ones, so profiles cover the
// whole process, not just this Service.
func (s *Service) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/service", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, debugPayload{
			Now:        time.Now(),
			Shards:     len(s.shards),
			Metrics:    s.Metrics(),
			SlowTraces: s.SlowTraces(),
		})
	})
	mux.HandleFunc("/debug/service/traces", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.SlowTraces())
	})
	mux.HandleFunc("/debug/service/tenants", func(w http.ResponseWriter, r *http.Request) {
		k := 32
		if v := r.URL.Query().Get("k"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				k = n
			}
		}
		writeJSON(w, struct {
			Now time.Time  `json:"now"`
			Hot []HotGraph `json:"hot"`
		}{time.Now(), s.HotGraphs(k)})
	})
	mux.HandleFunc("/debug/service/history", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.History())
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		writePromMetrics(w, s.Metrics())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("dfs service debug endpoints:\n" +
			"  /debug/service\n  /debug/service/traces\n  /debug/service/tenants\n" +
			"  /debug/service/history\n  /debug/metrics\n  /debug/pprof/\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
