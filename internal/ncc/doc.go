// Package ncc implements the Node-Capacitated Clique model of Augustine et
// al. (SPAA 2019) as an executable, deterministic simulator.
//
// The model: n nodes with ids 0..n-1 form a logical clique and operate in
// synchronous rounds. Per round, a node may send up to cap distinct messages
// of O(log n) bits to arbitrary nodes and may receive up to cap messages,
// where cap = CapFactor * ceil(log2 n). If more than cap messages are
// addressed to a node in one round, an arbitrary subset of cap messages is
// delivered and the rest are dropped by the network. A node that sends more
// than cap messages in one round panics: like an oversized payload, it is a
// program bug, never a network condition.
//
// Programs are written SPMD style: Run spawns one goroutine per node, all
// executing the same program against a Context. Context.Send buffers messages
// for the current round and Context.EndRound blocks on the global round
// barrier, returning the messages delivered to the node. Context.AwaitInput
// is EndRound that sleeps through empty rounds: the node stays parked, off
// the barrier, until a round delivers it input, its deadline round passes,
// or the fault plan kills it.
//
// Round delivery is executed by a pool of Config.Workers goroutines
// (default DefaultWorkers(n): GOMAXPROCS, at most one per 128 nodes) that
// shard senders for fault filtering and receivers for grouping, overload
// truncation, and inbox fill. Runs are bit-for-bit deterministic for a
// fixed Config.Seed regardless of the worker count: per-node program RNGs
// are derived from the seed, deliveries are ordered by sender id, fault
// decisions use a per-(round, sender) PRNG, and receive-overflow truncation
// uses a per-(round, receiver) PRNG.
//
// The engine is built for large N (10^5-10^6 nodes, where the model's
// O(log n) capacity bounds become interesting). The round barrier is a set
// of per-shard atomic countdowns that count only the nodes released for the
// round: a node arriving at EndRound or AwaitInput decrements its shard's
// counter, the last arrival overall performs one coordinator wake, and
// release sends one token to the capacity-1 wake channel of each woken node
// (held for the run, reused after a clean one; an abort closes them all) — a
// direct handoff per node, no shared lock, no per-round allocation and no
// serialized submit funnel. The receiver phase decides who wakes: a node in
// AwaitInput stays parked through rounds that deliver it nothing, and a
// round that releases nobody is fast-forwarded — the coordinator runs the
// next one without a barrier, still checking Cancel and MaxRounds, applying
// the FaultPlan and emitting one RoundSample.
//
// A round costs O(active + messages + n/64), not O(n). Per shard, a bitmap
// holds the nodes released for the round, and only they are walked for
// outboxes. The receiver phase builds the next bitmap from its receivers,
// the released nodes whose deadline is due, a min-heap of sleepers'
// (deadline, node) timers (a stale timer, left by an early wake, a re-sleep
// or a finish, is dropped when it comes due) and the round's kills; the
// release walks only its set bits.
//
// A message is 1..Config.MaxWords machine words, the model's O(log n) bits:
// Send takes a Word, Words2 or WordsN and panics on any other Payload. The
// in-transit Envelope is 32 bytes with no pointer — one or two words inline,
// wider payloads as an offset into the sender's word arena — so the outboxes
// and buckets every message is copied through are never scanned by the
// garbage collector. A delivered Received is 32 bytes with no pointer
// either: it holds the words inline or their offset into the receiver's
// word arena. Received.AsWord/AsWords2 read the inline forms, the receiving
// node's Context.Words the arena-backed ones, and its Context.Payload any
// width. A probe's ShardTiming.Sent view sees only From, To and Words().
// The steady-state message path allocates nothing (use SendWord,
// SendWords2, SendWords, AsWord, AsWords2 and Context.Words to stay off the
// heap entirely): outboxes, buckets and inboxes are sized from observed
// traffic and reused across rounds. A full bucket grows on demand, once, to what the
// rest of the round still sends to it (at least doubling), so steady
// traffic sizes it exactly in its first round. TestSteadyStateAllocs pins ~0
// allocs/message; BenchmarkEngineScale tracks 64k/256k/1M-node throughput
// against BENCH_baseline.json in CI.
//
// Config.FaultPlan is the one fault input. Per round it gives Outage/Revival
// transitions — a down node sends and receives nothing (its traffic is
// silently dropped at the round barrier), a killed node never returns, and
// a revival brings the node back, optionally with its program restarted
// from scratch — and the round's link loss: an i.i.d. drop probability drawn
// from a seeded per-(round, sender) stream, and a LinkCut of severed links.
// The only loss the model itself specifies is receive overflow; every
// other drop comes from the plan. Attaching any plan (even an empty one)
// also switches the engine into failure-isolation mode: a node goroutine
// that panics is counted in Stats.NodeFailures instead of crashing the run
// (a send over capacity still fails it: that is a program bug),
// and Stats reports Unfinished/DownAtEnd so callers can distinguish
// "completed" from "survived". Fault decisions come only from the plan — which the
// faultmodel package derives deterministically from the run seed — so
// faulted runs remain bit-for-bit reproducible across worker counts.
package ncc
