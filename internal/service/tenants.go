package service

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// TenantMetrics is one graph's cumulative cost attribution: everything the
// service has spent on the tenant since its meter was created (graph
// creation, or service open for a recovered graph). Replayed records are
// not metered — the counters describe traffic served, not history redone.
type TenantMetrics struct {
	Graph   string `json:"graph"`
	Shard   int    `json:"shard"`
	Version uint64 `json:"version"` // latest published snapshot version
	obs.TenantCounters
}

// TenantMetrics samples id's cost counters. Lock-free reads only: it never
// touches the shard's update loop.
func (s *Service) TenantMetrics(id GraphID) (TenantMetrics, error) {
	sh, gs := s.lookupState(id)
	if gs == nil {
		return TenantMetrics{}, fmt.Errorf("service: graph %q: %w", id, ErrUnknownGraph)
	}
	return tenantMetrics(string(id), sh, gs), nil
}

func tenantMetrics(id string, sh *shard, gs *graphState) TenantMetrics {
	tm := TenantMetrics{Graph: id, Shard: sh.idx, TenantCounters: gs.meter.Snapshot()}
	if snap := gs.snap.Load(); snap != nil {
		tm.Version = snap.Version
	}
	return tm
}

// HotGraph is one entry of the hottest-graphs ranking: the sketch's
// estimated cumulative apply cost (the ranking signal, with its bounded
// overestimation) plus the graph's exact meter sample.
type HotGraph struct {
	TenantMetrics
	// EstCost is the Space-Saving estimate of the graph's cumulative apply
	// nanoseconds; the true value lies within [EstCost-EstErr, EstCost].
	// Exact per-tenant counters are in the embedded TenantMetrics — the
	// estimate exists because the sketch also ranks graphs whose meters
	// this ranking never had to touch.
	EstCost uint64 `json:"est_cost_ns"`
	EstErr  uint64 `json:"est_err_ns"`
}

// HotGraphs returns the service's k most expensive graphs by cumulative
// apply cost, hottest first, by merging each shard's Space-Saving sketch.
// A migrated graph can appear in two shards' sketches — the destination is
// seeded with the source's estimate before the source entry is removed, and
// cost accrued before an old migration stays in the source's sketch until it
// ages out — so duplicates keep the largest estimate rather than summing,
// which would double-count the seed. Each entry carries the graph's exact
// meter sample, read from its current owning shard (the routing table, not
// the sketch's shard); entries whose graph was dropped after the sketch
// snapshot are omitted. A shard whose hot set is dominated by one tenant is
// a candidate for moving its cold tenants elsewhere with MigrateGraph.
func (s *Service) HotGraphs(k int) []HotGraph {
	if k <= 0 {
		return nil
	}
	best := map[string]obs.SpaceItem{}
	for _, sh := range s.shards {
		for _, it := range sh.hot.Snapshot() {
			if cur, ok := best[it.Key]; !ok || it.Count > cur.Count {
				best[it.Key] = it
			}
		}
	}
	items := make([]obs.SpaceItem, 0, len(best))
	for _, it := range best {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Key < items[j].Key
	})
	out := make([]HotGraph, 0, min(k, len(items)))
	for _, it := range items {
		if len(out) == k {
			break
		}
		sh, gs := s.lookupState(GraphID(it.Key))
		if gs == nil {
			continue // dropped since the sketch snapshot
		}
		out = append(out, HotGraph{
			TenantMetrics: tenantMetrics(it.Key, sh, gs),
			EstCost:       it.Count,
			EstErr:        it.Err,
		})
	}
	return out
}
