// Package obs is the serving stack's dependency-free observability core:
// lock-free latency histograms, per-update stage traces, a slowest-K trace
// ring, per-tenant cost meters, heavy-hitter sketches, time-series rings
// and a Prometheus text writer.
//
// The package imports only the standard library so every layer of the
// repository — including internal/core and internal/pram, which everything
// else depends on — can record into it without import cycles.
//
//   - Histogram is a log-bucketed (power-of-2) histogram of int64 samples
//     built from atomic counters: Record is a handful of uncontended atomic
//     adds (no locks, no allocation), cheap enough for the per-update hot
//     path. Snapshot returns an immutable, mergeable copy with
//     p50/p90/p99/max estimation.
//   - Trace is one update's stage breakdown as it flows through the serving
//     stack: mailbox wait → plan (graph mutation, D queries, LCA) →
//     reroot/engine → D maintenance (D.Rebuild) → snapshot publish, plus
//     outcome tags (rebuild|pinned|none|rejected, SameTree, moved/removed
//     set sizes, the PRAM depth/work charged). The five stages are
//     disjoint and sum to Total.
//   - SlowRing retains the slowest-K traces seen, with a lock-free
//     admission threshold so the common (fast-update) case never takes the
//     ring's mutex.
package obs
