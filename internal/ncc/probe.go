package ncc

// This file is the engine side of the telemetry plane (see internal/obs for
// the serialization side): a per-round probe fed from the coordinator and the
// per-shard scratch the delivery phases already maintain. The plane is
// strictly zero-overhead when off — with Config.Probe nil the engine performs
// no probe allocations and no probe work beyond a handful of predictable
// branches, pinned by TestSteadyStateAllocs and BenchmarkEngineScale.

// RoundSample is one completed round's telemetry, emitted through
// Config.Probe. Every field is a pure function of the Config (graph, seed,
// fault schedule) — never of worker scheduling or wall time — so the sample
// series is bit-identical across worker counts and across local, cluster, and
// cached execution. That determinism is what makes serialized traces
// content-addressable (internal/obs hashes them alongside Records).
//
// Counter fields (Messages, Words, the throttle and drop counts) are this
// round's deltas of the run's cumulative Stats; load fields (MaxSendLoad,
// MaxRecvOffered, MaxRecvDelivered) are this round's maxima, not the running
// ones Stats reports.
type RoundSample struct {
	// Round is the 0-based index of the completed round.
	Round int

	// Messages counts messages accepted for transmission this round (after
	// fault drops); Delivered subtracts the receive-overflow truncation, so
	// it is what actually landed in inboxes.
	Messages  int
	Delivered int

	// Words counts accepted payload words.
	Words int

	// Active counts in-service nodes that attempted to send or were offered
	// at least one message this round; the rest of the live set was
	// quiescent. Finished counts retired programs (returned or crashed)
	// before this round; Down counts nodes held out of service by the fault
	// plan (killed nodes stay down until retired).
	Active   int
	Finished int
	Down     int

	// MaxSendLoad / MaxRecvOffered / MaxRecvDelivered are this round's
	// per-node load maxima, the per-round view of the like-named Stats
	// fields.
	MaxSendLoad      int
	MaxRecvOffered   int
	MaxRecvDelivered int

	// RecvThrottled counts messages dropped this round by the model's one
	// loss, the receive cap; the remaining drop counters split out
	// fault-induced losses.
	RecvThrottled     int
	DroppedFault      int
	DroppedDead       int
	DroppedToFinished int
}

// ShardTiming is one delivery shard's wall-clock timing for a round, plus a
// view of the traffic the shard sent. Unlike RoundSample it depends on the
// host, the run and the worker count, so it travels beside the sample, never
// inside it, and internal/obs keeps it out of the canonical (content-hashed)
// trace.
//
// A shard's phases walk only its active nodes: SendNanos covers the nodes
// released for the round, RecvNanos the receivers, the due deadlines and
// timers and the building of the next wake set. Sleeping nodes add nothing
// to either, so on a mostly idle round both stay near the fixed per-shard
// cost.
type ShardTiming struct {
	// BarrierWaitNanos is how long the shard's last arrival sat parked before
	// the coordinator woke: large values mark early shards, ~0 marks the
	// straggler, and the spread across shards is the round's imbalance.
	BarrierWaitNanos int64

	// SendNanos / RecvNanos are the shard's two delivery-phase durations.
	SendNanos int64
	RecvNanos int64

	// ComputeNanos is the shard's program-compute span: from the previous
	// barrier release (or the run's start, for round 0) to the moment the
	// shard's last released node arrived. It covers the node programs' own
	// work plus the wake-up of the shard's nodes. A shard none of whose nodes
	// was released for the round (all finished or asleep in AwaitInput)
	// reads zero here and in BarrierWaitNanos.
	ComputeNanos int64

	// Sent[j] holds the envelopes this (sender) shard sent to receiver shard
	// j and the network accepted this round: after fault drops, before
	// receive truncation, in ascending sender order. It aliases the engine's
	// delivery buckets, so it costs no copy and is valid only during the
	// probe call. How the round's envelopes split over shards depends on
	// Workers; the multiset of envelopes does not.
	Sent [][]Envelope
}

// RoundProbe receives one RoundSample per completed round, plus per-shard
// timing. It is called on the coordinator goroutine, strictly between rounds
// (every node is parked), so implementations need no locking against the run —
// but they delay the barrier release, so they should be cheap. The timing
// slice and the Sent views inside it are reused every round and must not be
// retained. A panicking probe aborts the run with an error.
type RoundProbe func(s RoundSample, timing []ShardTiming)
