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
// Programs are written SPMD style: every node runs the same program against
// a Context, on the node's executor, a goroutine that outlives the run (see
// the recycling below). Context.SendWord (SendWords2 and SendWords for wider
// payloads) buffers messages for the current round and Context.EndRound
// blocks on the global round barrier, returning the messages delivered to
// the node. Context.AwaitInput
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
// (its executor's, reused across runs; an abort closes them all) — a
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
// SendWords2 and SendWords panic on a payload wider than MaxWords. The
// in-transit Envelope is 32 bytes with no pointer — one or two words inline,
// wider payloads as an offset into the sender's word arena — so the outboxes
// and buckets every message is copied through are never scanned by the
// garbage collector. A delivered Received is 32 bytes with no pointer
// either: it holds the words inline or their offset into the receiver's
// word arena. Received.AsWord/AsWords2 read the inline forms and the
// receiving node's Context.Words the arena-backed ones. A probe's
// ShardTiming.Sent view sees only From, To and Words(). The steady-state
// message path allocates nothing: outboxes, buckets and inboxes are sized
// from observed traffic and reused across rounds. A full bucket grows on
// demand, once, to what the rest of the round still sends to it (at least
// doubling), so steady traffic sizes it exactly in its first round. TestSteadyStateAllocs pins ~0
// allocs/message; BenchmarkEngineScale tracks 64k/256k/1M-node throughput
// against BENCH_baseline.json in CI.
//
// Runs recycle their memory and their goroutines. A run hands its node slab
// (every Context with its outbox, inbox and word arenas, its PCG held by
// value), the wake channels and the buckets to one process-wide spare, and
// the next run takes it by atomic swap instead of allocating; every field is
// re-initialised, only capacity carries over. Each slab node has an
// executor, started when the slab is allocated, that loops over its wake
// channel: a token starts the node's program of the current run, and after
// a clean run the executor stays parked in the spare, so a warm run starts
// no goroutine and allocates O(1) objects. An abort closes every wake
// channel of the slab, which ends its executors; the slab and buckets are
// still handed back, and the next run gives them fresh channels and
// executors. The hand-back drops any arena or bucket larger than a dense
// run of that size needs (a hot receiver's inbox is sized to all it was
// offered), so the spare does not grow over a stream of runs. A run of N
// nodes reuses the spare only when it has between N and 2N nodes and drops
// it otherwise, closing its channels, so a large run's memory and executors
// are not pinned behind a stream of small ones; a run that finds the spare
// taken by a concurrent one allocates, and the later hand-back of two drops
// the other's. So up to 2N parked executors outlive a run of N nodes, each
// holding 2-4 KiB of stack once GCs have shrunk it, which every GC scans;
// and nothing a run gives its program, a *Context, an inbox or a Words view,
// may be used after Run returns. An executor keeps the profiler labels of
// the run that started it; ReleaseSpare drops the spare, so the next run
// starts executors under its caller's labels. The recycling pays where a run
// follows another in the same process.
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
