package obs

import (
	"time"
)

// Trace is one update's journey through the serving stack, recorded by the
// shard loop (wait, plan remainder, publish, totals, tags from the machine)
// and the core maintainer (engine and D-maintenance spans, outcome tags).
// The five stage durations are disjoint and sum to Total:
//
//	Wait    — mailbox wait: submit → shard-loop receive
//	Plan    — maintainer apply time outside the two spans below: graph
//	          mutation, D patches, LCA and deepest-edge queries (D's, or,
//	          on a maintainer without D, the walk up from low that falls
//	          back to scanning T(sub)'s rows)
//	Engine  — reroot engine time: Reroot scheduling plus tree rebuild
//	DMaint  — D maintenance: the in-place D.Rebuild over the new tree;
//	          about zero for a maintainer without D (Outcome "none")
//	Publish — snapshot publication (Snapshot allocation + pointer install);
//	          a round publishes each touched graph once, and the span sits
//	          on that graph's last applied entry (zero on its others)
//
// A Trace is a plain value while being filled (the shard loop keeps it in
// its round scratch); the slow ring copies it on admission.
type Trace struct {
	Graph string    `json:"graph"`
	Shard int       `json:"shard"`
	Seq   uint64    `json:"seq"` // shard's applied-update ordinal
	Kind  string    `json:"kind"`
	Start time.Time `json:"start"`

	Total   time.Duration `json:"total"`
	Wait    time.Duration `json:"wait"`
	Plan    time.Duration `json:"plan"`
	Engine  time.Duration `json:"engine"`
	DMaint  time.Duration `json:"dmaint"`
	Publish time.Duration `json:"publish"`

	// Outcome tags the D-maintenance path the update took: "rebuild"
	// (fully dynamic mode: D.Rebuild over the new graph and tree),
	// "pinned" (fault-tolerant mode, D untouched), "none" (the maintainer
	// keeps no D: the SubtreeDFS executor, which the serving layer runs),
	// or "rejected" (the maintainer returned an error).
	Outcome  string `json:"outcome"`
	SameTree bool   `json:"same_tree"`         // back-edge update: tree object unchanged
	Moved    int    `json:"moved"`             // vertices in the rerooted or re-hung subtrees, plus attached ones
	Removed  int    `json:"removed"`           // vertices deleted from the tree
	Batch    int    `json:"batch"`             // entries in the update's mailbox round (1 = Apply)
	Depth    int64  `json:"pram_depth"`        // PRAM model depth charged for this update
	Work     int64  `json:"pram_work"`         // PRAM model work charged for this update
	Err      string `json:"error,omitempty"`   // rejection error, when Outcome == "rejected"
	Version  uint64 `json:"version,omitempty"` // snapshot version published (0 when rejected)
}

// Span is one named stage of a trace.
type Span struct {
	Stage string        `json:"stage"`
	D     time.Duration `json:"d"`
}

// StageNames lists the trace stages in pipeline order.
var StageNames = [5]string{"wait", "plan", "engine", "dmaint", "publish"}

// Stages returns the stage breakdown in pipeline order.
func (t *Trace) Stages() []Span {
	return []Span{
		{"wait", t.Wait},
		{"plan", t.Plan},
		{"engine", t.Engine},
		{"dmaint", t.DMaint},
		{"publish", t.Publish},
	}
}

// StageSum returns the sum of the five stage durations (equal to Total up
// to the clock reads between stages).
func (t *Trace) StageSum() time.Duration {
	return t.Wait + t.Plan + t.Engine + t.DMaint + t.Publish
}
