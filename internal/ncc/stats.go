package ncc

import "fmt"

// Stats aggregates what happened during a run. All load figures are measured
// per node per round. The JSON field names are part of the scenario Record
// format written by the CLIs' -json modes.
type Stats struct {
	// Rounds is the number of completed communication rounds.
	Rounds int `json:"rounds"`

	// Messages counts messages accepted for transmission.
	Messages int64 `json:"messages"`

	// Words counts payload words accepted for transmission.
	Words int64 `json:"words"`

	// MaxSendLoad is the maximum number of messages any node sent in a
	// single round (never above its capacity: a send over Cap() panics).
	MaxSendLoad int `json:"maxSendLoad"`

	// MaxRecvOffered is the maximum number of messages addressed to a
	// single node in a single round (before receive-capacity truncation).
	// The model's w.h.p. guarantees say this stays O(log n); experiment
	// E-LOAD checks it.
	MaxRecvOffered int `json:"maxRecvOffered"`

	// MaxRecvDelivered is the maximum number of messages actually
	// delivered to a node in one round (always <= capacity).
	MaxRecvDelivered int `json:"maxRecvDelivered"`

	// DroppedRecvOverflow counts messages dropped because more than cap
	// messages were addressed to one node in one round.
	DroppedRecvOverflow int64 `json:"droppedRecvOverflow,omitempty"`

	// DroppedFault counts messages lost to the FaultPlan's link loss: its
	// i.i.d. drops and its link cuts.
	DroppedFault int64 `json:"droppedFault,omitempty"`

	// DroppedToFinished counts messages addressed to nodes whose program
	// had already returned.
	DroppedToFinished int64 `json:"droppedToFinished,omitempty"`

	// DroppedDead counts messages suppressed because the sender or receiver
	// was out of service under the run's FaultPlan.
	DroppedDead int64 `json:"droppedDead,omitempty"`

	// NodesKilled / NodesDowned / NodesRevived count applied fault-plan
	// transitions: permanent fail-stops, suspensions, and returns to service.
	NodesKilled  int64 `json:"nodesKilled,omitempty"`
	NodesDowned  int64 `json:"nodesDowned,omitempty"`
	NodesRevived int64 `json:"nodesRevived,omitempty"`

	// NodeFailures counts node programs that panicked and were retired as
	// crashes under failure isolation (FaultPlan set) instead of aborting
	// the run.
	NodeFailures int64 `json:"nodeFailures,omitempty"`

	// CapUtilP50/P90/Max summarize per-node capacity utilization on
	// heterogeneous runs (Config.NodeCaps set): each node's highest
	// single-round post-truncation load in either direction, as a fraction of
	// its own capacity; nearest-rank percentiles over all nodes, rounded to
	// 1e-4. Zero (omitted) on uniform runs.
	CapUtilP50 float64 `json:"capUtilP50,omitempty"`
	CapUtilP90 float64 `json:"capUtilP90,omitempty"`
	CapUtilMax float64 `json:"capUtilMax,omitempty"`

	// Unfinished lists (sorted) the nodes that produced no output: programs
	// that never returned, were fail-stopped, or crashed under isolation.
	// DownAtEnd lists the nodes out of service when the run ended (killed or
	// in an unrevived outage). Populated only when a FaultPlan is set — on a
	// reliable run both are always empty.
	Unfinished []int `json:"unfinished,omitempty"`
	DownAtEnd  []int `json:"downAtEnd,omitempty"`
}

// Dropped returns the total number of messages dropped for any reason.
func (s Stats) Dropped() int64 {
	return s.DroppedRecvOverflow + s.DroppedFault + s.DroppedToFinished + s.DroppedDead
}

func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d msgs=%d words=%d maxSend=%d maxRecvOffered=%d dropped=%d",
		s.Rounds, s.Messages, s.Words, s.MaxSendLoad, s.MaxRecvOffered, s.Dropped())
}
