package ncc

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Context is a node's handle on the network. It is used by exactly one
// goroutine (the node's program) and is not safe for concurrent use. It
// lives in the run's node slab, which the next run reuses: a *Context must
// not be used after Run returns.
type Context struct {
	id    NodeID
	shard int
	r     *run
	// rng is &src, whose source is pcg, both held here so that seeding a
	// node allocates nothing; a revival with reset gives the node a fresh
	// source instead.
	rng   *rand.Rand
	src   rand.Rand
	pcg   rand.PCG
	out   []Envelope
	inbox []Received
	round int

	// deadline is the round count at which the node's last AwaitInput gives
	// up sleeping (0 after EndRound: wake every round). The node writes it
	// before arriving at the barrier; recvPhase reads it while the node is
	// parked, to wake it in the round it arrived or to queue a timer, and to
	// tell a live timer from a stale one.
	deadline int

	// sendWords is the arena backing this round's outgoing multi-word
	// payloads (SendWords); it is recycled once the round's delivery has
	// completed. inWords is the receiver-side arena the engine copies
	// delivered multi-word payloads into; inbox entries alias it.
	sendWords []uint64
	inWords   []uint64
}

// ID returns the node's identifier (0..N-1).
func (c *Context) ID() NodeID { return c.id }

// N returns the number of nodes in the clique.
func (c *Context) N() int { return c.r.cfg.N }

// Cap returns this node's per-round send/receive capacity in messages. With
// heterogeneous capacities (Config.NodeCaps) different nodes see different
// values; shared pacing constants must use MinCap instead.
func (c *Context) Cap() int { return c.r.capOf(c.id) }

// MinCap returns the smallest per-node capacity in the run — identical at
// every node, so programs can derive shared schedule constants (batch sizes,
// round counts) that every correspondent agrees on. Equals Cap on uniform
// runs.
func (c *Context) MinCap() int { return c.r.minCap }

// Round returns the number of completed rounds; it is identical at every
// node between barriers (the network is synchronous).
func (c *Context) Round() int { return c.round }

// Rand returns the node's deterministic private random source.
func (c *Context) Rand() *rand.Rand { return c.rng }

// Alive reports whether the node is currently in service. It is false only
// while the run's FaultPlan holds the node in an outage: the program keeps
// executing, but all of its traffic is suppressed until revival. Programs may
// consult it to model crash-aware behavior; ignoring it is also correct.
func (c *Context) Alive() bool { return c.r.down == nil || !c.r.down[c.id] }

// Faulty reports whether the run has a FaultPlan attached, i.e. may inject
// message drops, link cuts, or node outages. Protocol layers use it to switch
// from wait-forever semantics — correct on the reliable network the model
// specifies — to bounded waits that degrade instead of hanging.
func (c *Context) Faulty() bool { return c.r.cfg.FaultPlan != nil }

// Pending returns the number of messages buffered for sending this round.
func (c *Context) Pending() int { return len(c.out) }

// checkSend validates the destination of a buffered message. Sending to
// oneself or out of range is a program bug and panics.
func (c *Context) checkSend(to NodeID) {
	if to == c.id {
		panic(fmt.Sprintf("ncc: node %d sent a message to itself", c.id))
	}
	if to < 0 || to >= c.r.cfg.N {
		panic(fmt.Sprintf("ncc: node %d sent to out-of-range node %d", c.id, to))
	}
}

// growOut grows the node's outbox. Runs small enough that every node can
// afford a full-capacity outbox (provisionOut) jump straight to cap slots, so
// a node saturating the model's send bound pays exactly one allocation per
// run; very large sparse runs double from a small base instead, keeping
// memory proportional to actual traffic.
func (c *Context) growOut() []Envelope {
	target := max(4, 2*cap(c.out))
	if c.r.provisionOut {
		target = max(target, c.r.capOf(c.id))
	}
	out := make([]Envelope, len(c.out), target)
	copy(out, c.out)
	c.out = out
	return out
}

// pushOut appends one message to the outbox with the growth policy above.
func (c *Context) pushOut(to NodeID, a, b uint64, width int) {
	out := c.out
	if len(out) == cap(out) {
		out = c.growOut()
	}
	out = out[:len(out)+1]
	out[len(out)-1] = Envelope{From: int32(c.id), To: int32(to), a: a, b: b, width: int32(width)}
	c.out = out
}

// SendWord buffers a one-word message for delivery at the next round
// barrier. A message is 1..Config.MaxWords machine words, one word standing
// for Theta(log n) bits: the model admits O(log n)-bit messages, so a wider
// payload panics (see SendWords). No send allocates in steady state.
func (c *Context) SendWord(to NodeID, w Word) {
	c.checkSend(to)
	c.pushOut(to, uint64(w), 0, 1)
}

// SendWords2 buffers a two-word message; see SendWord.
func (c *Context) SendWords2(to NodeID, w Words2) {
	c.checkSend(to)
	if c.r.cfg.MaxWords < 2 {
		c.panicOversized(2)
	}
	c.pushOut(to, w[0], w[1], 2)
}

// SendWords buffers a message of len(ws) words: one- and two-word slices
// take the inline Word/Words2 representation, wider payloads are copied into
// the node's word arena (recycled every round), so arbitrary widths up to
// Config.MaxWords stay allocation-free in steady state. The caller keeps
// ownership of ws and may reuse it immediately.
func (c *Context) SendWords(to NodeID, ws []uint64) {
	c.checkSend(to)
	n := len(ws)
	switch {
	case n == 0:
		panic(fmt.Sprintf("ncc: node %d sent an empty word payload", c.id))
	case n > c.r.cfg.MaxWords:
		c.panicOversized(n)
	case n == 1:
		c.pushOut(to, ws[0], 0, 1)
	case n == 2:
		c.pushOut(to, ws[0], ws[1], 2)
	default:
		// The words go into the node's arena; the envelope carries only the
		// arena offset (offsets survive arena growth, and keep the Envelope
		// free of pointers).
		off := len(c.sendWords)
		c.sendWords = append(c.sendWords, ws...)
		c.pushOut(to, uint64(off), 0, n)
	}
}

// payloadWords resolves a multi-word envelope's payload against its sender's
// arena. Only valid during delivery, while every sender is parked at the
// round barrier (the barrier's release edge orders the arena writes before
// the delivery phases read them).
func (r *run) payloadWords(e *Envelope) []uint64 {
	return r.nodes[e.From].sendWords[e.a : e.a+uint64(e.width)]
}

func (c *Context) panicOversized(w int) {
	panic(fmt.Sprintf("ncc: node %d payload of %d words exceeds MaxWords=%d",
		c.id, w, c.r.cfg.MaxWords))
}

// EndRound submits the buffered messages to the round barrier, blocks until
// every node running this round has done the same, and returns the messages
// delivered to this node, ordered by sender id. The returned slice is reused at the next
// barrier and must not be retained across rounds, nor used after Run returns:
// the next run reuses its memory.
func (c *Context) EndRound() []Received { return c.AwaitInput(0) }

// NoDeadline is the AwaitInput deadline that never passes: the node sleeps
// until a message arrives.
const NoDeadline = math.MaxInt

// AwaitInput submits the buffered messages like EndRound and then sleeps
// through empty rounds. It returns exactly what this loop returns, with the
// same Round() afterwards:
//
//	in := c.EndRound()
//	for len(in) == 0 && c.Round() < deadline {
//		in = c.EndRound()
//	}
//
// A sleeping node leaves the round barrier: the engine neither wakes it nor
// waits for it until a round delivers it at least one message, Round()
// reaches deadline, or the fault plan kills it. Rounds in which every live
// node sleeps run back to back on the coordinator. Pass NoDeadline to wait
// for input alone; a deadline at or below Round()+1 makes it a plain
// EndRound.
func (c *Context) AwaitInput(deadline int) []Received {
	r := c.r
	if len(c.out) > r.capOf(c.id) {
		panic(&capacityError{fmt.Sprintf("ncc: node %d sent %d messages in round %d, capacity is %d",
			c.id, len(c.out), c.round, r.capOf(c.id))})
	}
	c.deadline = deadline
	r.bar.arrive(c.shard)
	if !r.bar.await(c.id) {
		panic(errAborted)
	}
	if r.killed != nil && r.killed[c.id] {
		// Fail-stopped by the fault plan while parked: unwind before the
		// program sees this round's delivery. The goroutine's recover treats
		// this as a normal finish with no output.
		panic(errCrashed)
	}
	// The round's delivery is complete: every multi-word payload has been
	// copied into its receiver's arena, so the send arena can be recycled
	// before the node buffers its next round of messages. The node may have
	// slept through rounds, so the round count is resynced, not incremented.
	c.sendWords = c.sendWords[:0]
	c.round = r.stats.Rounds
	return c.inbox
}

// errAborted is the sentinel panic used to unwind node goroutines when the
// coordinator aborts a run.
var errAborted = &abortError{}

type abortError struct{}

func (*abortError) Error() string { return "ncc: run aborted" }

// errCrashed is the sentinel panic used to unwind a single node goroutine
// when the fault plan fail-stops it; the node retires with no output while
// the run continues.
var errCrashed = &crashError{}

type crashError struct{}

func (*crashError) Error() string { return "ncc: node fail-stopped by fault plan" }

// capacityError is the panic value of a send over the sender's capacity. It
// is a program bug, never a network condition, so it fails the run even
// under a fault plan's failure isolation.
type capacityError struct{ msg string }

func (e *capacityError) Error() string { return e.msg }

type run struct {
	cfg        Config
	cap        int     // uniform base capacity (Config.Cap)
	caps       []int32 // per-node capacities; nil on uniform runs
	minCap     int     // smallest per-node capacity (== cap when uniform)
	workers    int
	shardWidth int       // ceil(N / workers); node id / shardWidth = its shard
	nodes      []Context // the node slab, reused by the next run
	bar        *barrier
	errCh      chan error // capacity 1: the coordinator acts on the first error only
	program    func(*Context)
	wg         sync.WaitGroup // one count per node whose program has not ended
	stats      Stats
	err        error
	pool       *workerPool

	// lostExecutor is set when a node's program called runtime.Goexit, which
	// ends its executor along with the program (see recycle).
	lostExecutor atomic.Bool

	// provisionOut: outboxes may grow straight to cap slots (see growOut).
	provisionOut bool

	// finMu guards finQ, the ids of nodes whose programs returned since the
	// last barrier. The coordinator drains it only after barrier completion,
	// when no node is running, so the slice swap below is race-free.
	finMu sync.Mutex
	finQ  []NodeID

	// Round state, touched only between barrier completion and release.
	// released holds the nodes released for the current round: only they
	// can have sent anything. recvPhase builds next, the nodes the round
	// wakes, from four sources: its receivers, the released nodes whose
	// deadline is due, the due timers (a released node going to sleep with a
	// finite deadline pushes one onto its shard's heap) and the round's kills.
	// woke[shard] counts next's members and arms the next barrier; after the
	// release the coordinator swaps the two sets. So a round costs
	// O(released + receivers + messages + n/64), however many nodes sleep.
	finished []bool // finished[id]: node id's program has returned
	released nodeSet
	next     nodeSet
	woke     []int32
	timers   []timerHeap

	// Liveness plane, allocated only when cfg.FaultPlan is set. down[id]
	// suppresses node id's traffic in both directions; killed[id] unwinds its
	// program at the next barrier. Both are written by the coordinator while
	// every node is parked and read by nodes/delivery workers afterwards, so
	// the barrier release orders every access. nodeFailures counts isolated
	// node panics (guarded by finMu, folded into stats after the run).
	down         []bool
	killed       []bool
	kills        []NodeID // the nodes applyFaults killed this round
	crashed      []bool   // retired by fail-stop or isolated panic: no output
	nodeFailures int64

	// This round's link loss from the fault plan (zero without one), set by
	// the coordinator in applyFaults and read by the sender phase.
	dropP float64
	cut   LinkCut

	// Scratch, reused across rounds. buckets[i][j] holds the envelopes sent
	// by sender shard i to receiver shard j this round, and bucketPeak[i*w+j]
	// its longest length in the run so far; recvCounts[v] is
	// receiver v's offered-message count, computed so inboxes are filled
	// directly without a staging copy, and receivers[j] lists receiver shard
	// j's nodes with a non-zero count, so per-receiver work and the reset
	// of the counts skip everyone else; shardStats are the per-worker partial
	// results merged by the coordinator. sendFn/recvFn are the two phase
	// method values, bound once so delivery allocates no closures per round.
	buckets        [][][]Envelope
	bucketPeak     []int
	recvCounts     []int32
	recvWordCounts []int32
	receivers      [][]NodeID
	// peakSend/peakRecv record each node's highest post-truncation round load
	// for the capacity-utilization percentiles; allocated only on
	// heterogeneous runs. A node's entries are written by exactly one shard
	// per phase (its sender shard in phase A, its receiver shard in phase B),
	// so the updates are race-free without atomics.
	peakSend   []int32
	peakRecv   []int32
	shardStats []Stats
	sendFn     func(int)
	recvFn     func(int)

	// Coordinator-owned liveness counters (alive doubles as the run's exit
	// condition; downCount mirrors the fault plane for the probe).
	alive     int
	downCount int

	// Probe plane scratch (see probe.go), allocated only when cfg.Probe is
	// set; with probing false the delivery phases pay one predictable branch
	// per node and nothing else. prevStats snapshots the cumulative Stats at
	// the previous emission so probeRound computes per-round deltas.
	// activeAt[id] is round+1 once node id moved traffic in the round; it is
	// written only by node id's own shard (its sender shard in phase A, its
	// receiver shard in phase B — the same index both times), which counts
	// each first mark into shardActive, so it needs no atomics and no reset.
	// roundMaxSend is captured between the phases, before phase B zeroes the
	// shard stats. timing is the reused slice handed to the probe;
	// probeSend/probeRecv are per-shard phase durations and wakeNanos the
	// coordinator's wake timestamp for the barrier-wait computation.
	probing      bool
	prevStats    Stats
	roundMaxSend int
	wakeNanos    int64
	activeAt     []int
	shardActive  []int32
	probeSend    []int64
	probeRecv    []int64
	timing       []ShardTiming
}

// Run executes program on every node of a fresh network and returns the run
// statistics. It returns an error if the run was aborted (node panic or
// Config.MaxRounds exceeded).
//
// A run leaves its memory to the next run (see engineMem): no Context, inbox
// or word view of a run may be used after Run returns. A clean run also
// leaves its node executors, parked on their wake channels, so after Run
// returns up to 2N of them (the spare's slab) stay alive until a later run
// drops the spare.
func Run(cfg Config, program func(*Context)) (Stats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	r := &run{
		cfg:     cfg,
		cap:     cfg.Cap(),
		minCap:  cfg.MinCap(),
		workers: max(1, min(cfg.Workers, cfg.N)),
		errCh:   make(chan error, 1),
	}
	if cfg.NodeCaps != nil {
		r.caps = make([]int32, cfg.N)
		for i, cp := range cfg.NodeCaps {
			r.caps[i] = int32(cp)
		}
		r.peakSend = make([]int32, cfg.N)
		r.peakRecv = make([]int32, cfg.N)
	}
	w := r.workers
	r.shardWidth = (cfg.N + w - 1) / w
	// Full-capacity outboxes for every node cost N*cap envelopes; provision
	// them eagerly only while that stays within a modest budget (~64 MiB),
	// so sparse million-node runs keep memory proportional to traffic.
	r.provisionOut = int64(cfg.N)*int64(r.cap) <= (64<<20)/int64(envelopeBytes)
	r.take(takeSpare(cfg.N))
	r.recvCounts = make([]int32, cfg.N)
	r.recvWordCounts = make([]int32, cfg.N)
	// Sized once: every node retires once, and a shard has at most
	// shardWidth receivers, so neither grows by appending.
	r.finQ = make([]NodeID, 0, cfg.N)
	r.receivers = make([][]NodeID, w)
	rcv := make([]NodeID, w*r.shardWidth)
	for j := range r.receivers {
		r.receivers[j] = rcv[j*r.shardWidth : j*r.shardWidth : (j+1)*r.shardWidth]
	}
	r.shardStats = make([]Stats, w)
	r.finished = make([]bool, cfg.N)
	r.released = newNodeSet(w, r.shardWidth)
	r.next = newNodeSet(w, r.shardWidth)
	r.timers = make([]timerHeap, w)
	if cfg.FaultPlan != nil {
		r.down = make([]bool, cfg.N)
		r.killed = make([]bool, cfg.N)
		r.crashed = make([]bool, cfg.N)
	}
	r.sendFn = r.sendPhase
	r.recvFn = r.recvPhase
	if cfg.Probe != nil {
		r.probing = true
		r.activeAt = make([]int, cfg.N)
		r.shardActive = make([]int32, w)
		r.probeSend = make([]int64, w)
		r.probeRecv = make([]int64, w)
		r.timing = make([]ShardTiming, w)
	}
	if w > 1 {
		r.pool = newWorkerPool(w)
		defer r.pool.close()
	}
	if r.probing {
		r.bar.times = make([]int64, w)
		r.bar.releasedAt = time.Now().UnixNano()
	}
	// Arm the first barrier before any node can arrive at it.
	r.woke = make([]int32, w)
	for i := 0; i < w; i++ {
		lo, hi := r.shardRange(i)
		r.woke[i] = int32(hi - lo)
		for id := lo; id < hi; id++ {
			r.released.add(i, id) // every node runs round 0
		}
	}
	r.bar.reset(r.woke)

	// Start the run: each node's executor takes its first token and runs
	// program (see runNode).
	r.program = program
	r.wg.Add(cfg.N)
	for _, tok := range r.bar.tokens {
		tok <- struct{}{}
	}
	r.coordinate()
	r.wg.Wait()
	if cfg.FaultPlan != nil {
		// Nodes that returned after the final barrier are finished even if
		// the coordinator never retired them (no goroutine is running now, so
		// reading finQ is race-free).
		for _, id := range r.finQ {
			r.finished[id] = true
		}
		for id := 0; id < cfg.N; id++ {
			if !r.finished[id] || r.crashed[id] {
				r.stats.Unfinished = append(r.stats.Unfinished, id)
			}
			if r.down[id] {
				r.stats.DownAtEnd = append(r.stats.DownAtEnd, id)
			}
		}
		r.stats.NodeFailures = r.nodeFailures
	}
	if r.caps != nil {
		// Capacity utilization: each node's highest single-round load (either
		// direction, post-truncation) as a fraction of its own capacity.
		// Deterministic at any worker count, because traffic is.
		utils := make([]float64, cfg.N)
		for id := range utils {
			utils[id] = float64(max(r.peakSend[id], r.peakRecv[id])) / float64(r.caps[id])
		}
		slices.Sort(utils)
		pct := func(p float64) float64 {
			k := max(0, int(math.Ceil(p*float64(len(utils))))-1)
			return math.Round(utils[k]*1e4) / 1e4
		}
		r.stats.CapUtilP50 = pct(0.50)
		r.stats.CapUtilP90 = pct(0.90)
		r.stats.CapUtilMax = pct(1)
	}
	// Last: once handed back, the memory belongs to the next run.
	r.recycle()
	return r.stats, r.err
}

// execute is the executor of slab node c. It runs the node's program once
// per start token, for one run after another, until the node's wake channel
// tok closes: on an abort, or when the spare holding the slab is dropped.
// Between runs it is parked on tok in the spare; it reads c only after a
// token, which a run sends once it has re-initialised c.
func execute(c *Context, tok chan struct{}) {
	for range tok {
		c.r.runNode(c)
	}
}

// runNode runs the program on node c. A normal return, a fail-stop or an
// isolated panic queues the node for retirement and arrives at the current
// barrier so the round completes without it; any other panic fails the run.
// wg.Done comes last: after it the executor touches nothing of the run.
func (r *run) runNode(c *Context) {
	defer r.wg.Done()
	returned := false
	defer func() {
		v := recover()
		if v == errAborted {
			return
		}
		if v == nil && !returned {
			// runtime.Goexit: the program ends as if it returned, but it
			// takes the executor with it.
			r.lostExecutor.Store(true)
		}
		if v != nil && v != errCrashed {
			if _, overCap := v.(*capacityError); overCap || r.cfg.FaultPlan == nil {
				select {
				case r.errCh <- fmt.Errorf("ncc: node %d panicked: %v\n%s", c.id, v, debug.Stack()):
				default:
				}
				return
			}
			// Failure isolation: under a fault plan, a panicking program
			// (other than one sending over its capacity) is a crashed node,
			// not a failed run — faults push protocols into states their
			// reliable-network invariants never allowed, and the run's job
			// is to measure the degradation. Only the count enters Stats
			// (the message text would be scheduling-dependent).
			r.finMu.Lock()
			r.nodeFailures++
			r.finMu.Unlock()
		}
		// Normal return or isolated crash: queue the node for retirement,
		// then arrive at the current barrier so the round completes without
		// it.
		r.finMu.Lock()
		if v != nil {
			r.crashed[c.id] = true // fail-stop or isolated panic: no output
		}
		r.finQ = append(r.finQ, c.id)
		r.finMu.Unlock()
		r.bar.arrive(c.shard)
	}()
	r.program(c)
	returned = true
}

// engineMem is the memory of a run's nodes and of its delivery: the node
// slab with each node's outbox, inbox and word arenas, the wake tokens with
// their executors, and the buckets. A run hands it to spareMem when it ends,
// and the next run takes it from there by atomic swap instead of allocating;
// every field is re-initialised on reuse, and only capacity carries over.
// The slab is len(nodes) long, the size of the run that allocated it, and so
// are tokens, whose channel tokens[i] the executor of nodes[i] is parked on;
// tokens is nil when an aborted run closed them.
type engineMem struct {
	nodes   []Context
	tokens  []chan struct{}
	buckets [][]Envelope // the bucket grid, flattened sender-major
}

// drop ends m's executors by closing their wake channels; m must not be
// used afterwards.
func (m *engineMem) drop() {
	for _, tok := range m.tokens {
		close(tok)
	}
}

// spareMem holds the memory of the last run, or nil. It is one slot, not a
// pool: a pool's per-P caches miss whenever the next run starts on another
// P, and two sets stay live. Concurrent runs find it empty and allocate.
var spareMem atomic.Pointer[engineMem]

// ReleaseSpare drops what the last run left for the next one: its memory and
// its parked node executors. The next run allocates afresh and starts its
// executors from the goroutine that calls Run, so they carry that
// goroutine's profiler labels (runtime/pprof), where reused executors carry
// the labels of the run that started them.
func ReleaseSpare() {
	if m := spareMem.Swap(nil); m != nil {
		m.drop()
	}
}

// takeSpare takes the spare for a run of n nodes. It reuses it only when it
// has between n and 2n nodes, and otherwise drops it, so a large run's memory
// and executors are not pinned behind a stream of small runs; an empty
// engineMem means "allocate everything".
func takeSpare(n int) *engineMem {
	m := spareMem.Swap(nil)
	if m == nil {
		return &engineMem{}
	}
	if len(m.nodes) < n || len(m.nodes) > 2*n {
		m.drop()
		return &engineMem{}
	}
	return m
}

// take installs m as the run's memory, allocating what m lacks. A new slab,
// or one whose channels an abort closed, gets fresh wake channels and one
// executor per slab node; a reused slab keeps its parked executors.
func (r *run) take(m *engineMem) {
	n, w := r.cfg.N, r.workers
	if len(m.nodes) < n {
		m.nodes = make([]Context, n)
	}
	r.nodes = m.nodes[:n]
	for i := range r.nodes {
		c := &r.nodes[i]
		*c = Context{id: i, shard: i / r.shardWidth, r: r,
			out: c.out[:0], inbox: c.inbox[:0], sendWords: c.sendWords[:0], inWords: c.inWords[:0]}
		c.pcg.Seed(uint64(r.cfg.Seed)^0x5851f42d4c957f2d, uint64(i)+1)
		c.src = *rand.New(&c.pcg)
		c.rng = &c.src
	}
	if m.tokens == nil {
		m.tokens = make([]chan struct{}, len(m.nodes))
		for i := range m.tokens {
			m.tokens[i] = make(chan struct{}, 1)
			go execute(&m.nodes[i], m.tokens[i])
		}
	}
	r.bar = newBarrier(w, m.tokens[:n])
	flat := make([][]Envelope, w*w)
	copy(flat, m.buckets)
	r.buckets = make([][][]Envelope, w)
	for i := range r.buckets {
		r.buckets[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	r.bucketPeak = make([]int, w*w)
}

// recycle hands the run's memory to spareMem, dropping the spare it
// replaces (a concurrent run's); Run calls it last, once every node's program
// has ended. A clean run hands back its wake channels with their executors
// parked on them, each empty: a node takes the last token it was sent
// before its program returns. An aborted run's channels are closed, which
// ends its executors, so it hands back the slab and buckets alone; so does a
// run that lost an executor to runtime.Goexit, once it has closed the rest.
//
// The spare keeps no pointer to the finished run, and no more memory than
// this run used or a dense run of its size needs, so a stream of runs does
// not leave it holding the largest arena each node or bucket ever had: an
// outbox or inbox over max(16, 2·cap) entries of its node (a hot receiver's
// inbox is sized to all it was offered), a word arena over MaxWords times
// that, and a bucket over max(16, 2·its peak length in this run) are dropped.
func (r *run) recycle() {
	if r.lostExecutor.Load() {
		r.bar.abort()
	}
	var tokens []chan struct{}
	if !r.bar.aborted.Load() {
		tokens = r.bar.tokens[:cap(r.bar.tokens)]
	}
	nodes := r.nodes[:cap(r.nodes)]
	for id := range nodes {
		k := r.cap // the slab past this run's nodes: bound it by the base capacity
		if id < len(r.nodes) {
			k = r.capOf(id)
		}
		k = max(16, 2*k)
		c := &nodes[id]
		c.r = nil
		c.out = within(c.out, k)
		c.inbox = within(c.inbox, k)
		c.sendWords = within(c.sendWords, k*r.cfg.MaxWords)
		c.inWords = within(c.inWords, k*r.cfg.MaxWords)
	}
	buckets := slices.Concat(r.buckets...)
	for k, b := range buckets {
		buckets[k] = within(b, max(16, 2*r.bucketPeak[k]))
	}
	if old := spareMem.Swap(&engineMem{nodes: nodes, tokens: tokens, buckets: buckets}); old != nil {
		old.drop()
	}
}

// within returns s, or nil when its capacity is over limit. take empties
// what is kept.
func within[E any](s []E, limit int) []E {
	if cap(s) > limit {
		return nil
	}
	return s
}

// Collect runs program on every node and gathers the per-node return values.
func Collect[T any](cfg Config, program func(*Context) T) ([]T, Stats, error) {
	out := make([]T, cfg.N)
	st, err := Run(cfg, func(ctx *Context) {
		out[ctx.ID()] = program(ctx)
	})
	return out, st, err
}

// fail records the abort cause and aborts the barrier, unwinding every parked
// or late-arriving node.
func (r *run) fail(err error) {
	r.err = err
	r.bar.abort()
}

func (r *run) coordinate() {
	r.alive = r.cfg.N
	waiting := true // every node runs round 0
	for {
		// Barrier: every released node arrives exactly once per round (a
		// node blocked at the barrier cannot finish, so the live set is
		// stable once the countdown completes). When the last round released
		// nobody — every live node sleeps in AwaitInput — no one can arrive,
		// and the next round runs at once.
		if waiting {
			select {
			case <-r.bar.wake:
			case err := <-r.errCh:
				r.fail(err)
				return
			case <-r.cfg.Cancel: // nil channel when cancellation is unused
				r.fail(ErrCanceled)
				return
			}
		}
		if r.probing {
			r.wakeNanos = time.Now().UnixNano()
		}
		// A cancellation racing the barrier wake must still win this round:
		// the select above picks arbitrarily among ready cases, and the
		// "within one round barrier" guarantee would otherwise only hold in
		// expectation. Rounds run without a barrier see it here too.
		if r.cfg.Cancel != nil {
			select {
			case <-r.cfg.Cancel:
				r.fail(ErrCanceled)
				return
			default:
			}
		}
		// Retire nodes whose programs returned before this barrier. All
		// live nodes are parked (or gone) here, so draining finQ and
		// reusing its backing array cannot race with an append.
		r.finMu.Lock()
		fin := r.finQ
		r.finQ = r.finQ[:0]
		r.finMu.Unlock()
		for _, id := range fin {
			r.finished[id] = true
			r.alive--
			if r.down != nil && r.down[id] {
				// A killed node retiring moves from the down count to the
				// finished count.
				r.downCount--
			}
		}
		if r.alive == 0 {
			return
		}
		if r.stats.Rounds >= r.cfg.MaxRounds {
			r.fail(fmt.Errorf("%w (%d)", ErrMaxRounds, r.cfg.MaxRounds))
			return
		}
		if r.cfg.FaultPlan != nil {
			if err := r.applyFaults(r.stats.Rounds); err != nil {
				r.fail(err)
				return
			}
		}
		if !r.deliverRound() {
			return
		}
		// Re-arm the countdowns before waking anyone: released nodes may
		// arrive at the next barrier immediately.
		waiting = r.bar.reset(r.woke)
		r.bar.release(&r.next)
		r.released, r.next = r.next, r.released
	}
}

// applyFaults asks the fault plan for round's liveness transitions and link
// loss, and applies the transitions, while every live node is parked at the
// barrier. Outages hitting finished or already-down nodes are ignored (except
// to escalate an outage to a kill); revivals only lift plain outages — a kill
// is permanent. A panicking plan is returned as an error.
func (r *run) applyFaults(round int) (err error) {
	defer recoverDeliveryPanic(&err)
	r.kills = r.kills[:0]
	downs, ups := r.cfg.FaultPlan.Transitions(round)
	r.dropP, r.cut = r.cfg.FaultPlan.Loss(round)
	for _, o := range downs {
		id := o.Node
		if id < 0 || id >= r.cfg.N || r.finished[id] || r.killed[id] {
			continue
		}
		if !r.down[id] {
			r.down[id] = true
			r.downCount++
			if o.Kill {
				r.stats.NodesKilled++
			} else {
				r.stats.NodesDowned++
			}
		} else if !o.Kill {
			continue
		} else {
			r.stats.NodesKilled++
		}
		if o.Kill {
			r.killed[id] = true
			r.kills = append(r.kills, id)
		}
	}
	for _, v := range ups {
		id := v.Node
		if id < 0 || id >= r.cfg.N || r.finished[id] || !r.down[id] || r.killed[id] {
			continue
		}
		r.down[id] = false
		r.downCount--
		r.stats.NodesRevived++
		if v.Reset {
			// A rejoin with fresh volatile state: reseed the node's private
			// randomness from (seed, round, node) — deterministic across
			// worker counts — and discard whatever it had queued to send.
			ctx := &r.nodes[id]
			p := roundPCG(r.cfg.Seed, round, id, saltRevive)
			ctx.rng = rand.New(&p)
			ctx.out = ctx.out[:0]
		}
	}
	return nil
}

// shardRange returns the contiguous node-id range [lo, hi) covered by shard i
// of r.workers equal shards.
func (r *run) shardRange(i int) (int, int) {
	lo := i * r.shardWidth
	hi := min(lo+r.shardWidth, r.cfg.N)
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// shardOf returns the shard covering node id.
func (r *run) shardOf(id NodeID) int {
	return id / r.shardWidth
}

// capOf returns node id's per-round capacity: the uniform base, or its
// NodeCaps entry on heterogeneous runs.
func (r *run) capOf(id NodeID) int {
	if r.caps == nil {
		return r.cap
	}
	return int(r.caps[id])
}

// roundPCG seeds a PRNG from (run seed, round, node, salt) so that random
// decisions are a pure function of the configuration — never of worker
// scheduling — keeping runs bit-for-bit deterministic for a fixed Config.Seed
// regardless of Config.Workers.
func roundPCG(seed int64, round int, node NodeID, salt uint64) rand.PCG {
	var p rand.PCG
	p.Seed(uint64(seed)^salt, uint64(round)<<32|uint64(uint32(node)))
	return p
}

const (
	saltFault  = 0x9e3779b97f4a7c15
	saltRecv   = 0xbf58476d1ce4e5b9
	saltRevive = 0x94d049bb133111eb
)

func pcgFloat64(p *rand.PCG) float64 {
	return float64(p.Uint64()>>11) * 0x1.0p-53
}

// pcgIntN returns a uniform int in [0, n) by rejection sampling.
func pcgIntN(p *rand.PCG, n int) int {
	bound := math.MaxUint64 - math.MaxUint64%uint64(n)
	for {
		if v := p.Uint64(); v < bound {
			return int(v % uint64(n))
		}
	}
}

// sendPhase (phase A) filters the outboxes of sender shard i's released
// nodes (finished/down/link-loss drops) into per-receiver-shard buckets.
// Only a released node can have sent anything this round, and walking them
// in ascending id order keeps each bucket sender-sorted.
func (r *run) sendPhase(i int) {
	round := r.stats.Rounds
	probing := r.probing
	var t0 time.Time
	if probing {
		t0 = time.Now()
	}
	st := &r.shardStats[i]
	*st = Stats{}
	buckets := r.buckets[i]
	for j := range buckets {
		buckets[j] = buckets[j][:0]
	}
	faulty := r.down != nil
	dropP, cut := r.dropP, r.cut
	var active int32
	for id := r.released.first(i); id >= 0; id = r.released.next(i, id+1) {
		if r.finished[id] {
			continue
		}
		ctx := &r.nodes[id]
		if faulty && r.down[id] {
			// Out-of-service sender: its whole outbox is suppressed.
			st.DroppedDead += int64(len(ctx.out))
			ctx.out = ctx.out[:0]
			continue
		}
		out := ctx.out
		if probing && len(out) > 0 {
			r.activeAt[id] = round + 1
			active++
		}
		if len(out) > st.MaxSendLoad {
			st.MaxSendLoad = len(out)
		}
		if r.peakSend != nil && int32(len(out)) > r.peakSend[id] {
			r.peakSend[id] = int32(len(out))
		}
		var frng rand.PCG
		if dropP > 0 {
			frng = roundPCG(r.cfg.Seed, round, id, saltFault)
		}
		for k := range out {
			e := &out[k]
			if r.finished[e.To] {
				st.DroppedToFinished++
				continue
			}
			if faulty && r.down[e.To] {
				st.DroppedDead++
				continue
			}
			if dropP > 0 && pcgFloat64(&frng) < dropP {
				st.DroppedFault++
				continue
			}
			if cut.To != nil && cut.To[e.To] || cut.From != nil && cut.From[e.From] {
				st.DroppedFault++
				continue
			}
			st.Messages++
			st.Words += int64(e.Words())
			j := r.shardOf(NodeID(e.To))
			b := buckets[j]
			if len(b) == cap(b) {
				b = r.growBucket(i, j, b, id, out[k:])
			}
			b = b[:len(b)+1]
			b[len(b)-1] = *e
			buckets[j] = b
		}
		ctx.out = ctx.out[:0]
	}
	if probing {
		r.shardActive[i] = active
		r.probeSend[i] = int64(time.Since(t0))
	}
}

// growBucket grows sender shard i's full bucket b for receiver shard j, once,
// to hold what the rest of the round can still put there: the envelopes of
// rest, the unsent tail of node id's outbox, then those of shard i's later
// released senders. The count ignores drops, so it is an upper bound. Growth
// at least doubles, so a bucket reaches its round's length in one allocation
// when traffic is steady and in O(log) ones when it ramps; rounds that fit
// never count.
func (r *run) growBucket(i, j int, b []Envelope, id NodeID, rest []Envelope) []Envelope {
	lo, hi := r.shardRange(j)
	toShard := func(out []Envelope) int {
		c := 0
		for k := range out {
			if to := int(out[k].To); to >= lo && to < hi {
				c++
			}
		}
		return c
	}
	need := len(b) + toShard(rest)
	for v := r.released.next(i, id+1); v >= 0; v = r.released.next(i, v+1) {
		if !r.finished[v] && (r.down == nil || !r.down[v]) {
			need += toShard(r.nodes[v].out)
		}
	}
	nb := make([]Envelope, len(b), max(need, 2*cap(b), 16))
	copy(nb, b)
	return nb
}

// recvPhase (phase B) delivers receiver shard j's buckets without a staging
// copy: a first pass counts the messages offered to each receiver (listing
// the receivers, sizing inboxes exactly and spotting overloads), a second
// pass appends straight into the inboxes (sender shards visited in ascending
// order keep messages sender-sorted), and overloaded inboxes are then
// truncated in place to a seeded-random subset of cap messages. It then
// builds the shard's part of the next release: the receivers, the released
// nodes whose deadline is due, the due timers and the round's kills.
func (r *run) recvPhase(j int) {
	round := r.stats.Rounds
	probing := r.probing
	var t0 time.Time
	if probing {
		t0 = time.Now()
	}
	st := &r.shardStats[j]
	*st = Stats{}
	counts, wcounts := r.recvCounts, r.recvWordCounts
	rcv := r.receivers[j][:0]
	for i := 0; i < r.workers; i++ {
		bucket := r.buckets[i][j]
		if p := &r.bucketPeak[i*r.workers+j]; len(bucket) > *p {
			*p = len(bucket)
		}
		for k := range bucket {
			e := &bucket[k]
			if counts[e.To] == 0 {
				rcv = append(rcv, NodeID(e.To))
			}
			counts[e.To]++
			if e.width > 2 {
				wcounts[e.To] += e.width
			}
		}
	}
	r.receivers[j] = rcv
	clear(r.next.shard(j))
	var active int32
	for _, id := range rcv {
		ctx := &r.nodes[id]
		c := int(counts[id])
		if probing && r.activeAt[id] != round+1 {
			r.activeAt[id] = round + 1
			active++
		}
		if c > st.MaxRecvOffered {
			st.MaxRecvOffered = c
		}
		d := c
		if capAt := r.capOf(id); c > capAt {
			d = capAt
			st.DroppedRecvOverflow += int64(c - capAt)
		}
		if d > st.MaxRecvDelivered {
			st.MaxRecvDelivered = d
		}
		if r.peakRecv != nil && int32(d) > r.peakRecv[id] {
			r.peakRecv[id] = int32(d)
		}
		// A message wakes its receiver, asleep in AwaitInput or not.
		r.next.add(j, id)
		// The inbox temporarily holds every offered message (truncation
		// happens in place below), so provision for the offered count. The
		// receiver word arena is provisioned the same way so the copy pass
		// below never reallocates mid-fill.
		if cap(ctx.inbox) < c {
			ctx.inbox = make([]Received, 0, c)
		} else {
			ctx.inbox = ctx.inbox[:0]
		}
		if wc := int(wcounts[id]); cap(ctx.inWords) < wc {
			ctx.inWords = make([]uint64, 0, wc)
		} else {
			ctx.inWords = ctx.inWords[:0]
		}
	}
	for i := 0; i < r.workers; i++ {
		bucket := r.buckets[i][j]
		for k := range bucket {
			e := &bucket[k]
			ctx := &r.nodes[e.To]
			rc := e.received()
			if e.width > 2 {
				// Copy the payload out of the sender's arena: the sender
				// recycles it the moment it resumes, while this inbox entry
				// stays readable for the receiver's whole next round. The
				// entry keeps the words' offset in the receiver's arena.
				rc.a = uint64(len(ctx.inWords))
				ctx.inWords = append(ctx.inWords, r.payloadWords(e)...)
			}
			ctx.inbox = append(ctx.inbox, rc)
		}
	}
	for _, id := range rcv {
		capAt := r.capOf(id)
		if int(counts[id]) <= capAt {
			continue
		}
		// Overload: keep a seeded-random subset of cap messages, re-sorted
		// by sender. The shuffle consumes the per-(round, receiver) PCG in
		// offered order, so the surviving subset is identical regardless of
		// the worker count.
		ctx := &r.nodes[id]
		msgs := ctx.inbox
		rng := roundPCG(r.cfg.Seed, round, id, saltRecv)
		for k := len(msgs) - 1; k > 0; k-- {
			l := pcgIntN(&rng, k+1)
			msgs[k], msgs[l] = msgs[l], msgs[k]
		}
		ctx.inbox = msgs[:capAt]
		sortReceivedByFrom(ctx.inbox)
	}
	// The nodes released for this round arrived with a deadline: a due one
	// wakes the node (EndRound's is 0), and a node going to sleep with a
	// finite one sets a timer. A receiver is awake already.
	timers := &r.timers[j]
	for id := r.released.first(j); id >= 0; id = r.released.next(j, id+1) {
		if r.finished[id] || counts[id] > 0 {
			continue
		}
		switch d := r.nodes[id].deadline; {
		case d <= round+1:
			r.wakeQuiet(j, id)
		case d != NoDeadline:
			timers.push(timer{at: d, id: id})
		}
	}
	// A due timer wakes its sleeper unless it is stale.
	for len(*timers) > 0 && (*timers)[0].at <= round+1 {
		if t := timers.pop(); r.timerLive(t) {
			r.wakeQuiet(j, t.id)
		}
	}
	if len(*timers) > 2*r.shardWidth+64 {
		r.compactTimers(timers)
	}
	// A node killed this round wakes to unwind.
	for _, id := range r.kills {
		if r.shardOf(id) == j {
			r.wakeQuiet(j, id)
		}
	}
	r.woke[j] = r.next.count(j)
	for _, id := range rcv {
		counts[id], wcounts[id] = 0, 0
	}
	if probing {
		r.shardActive[j] += active
		r.probeRecv[j] = int64(time.Since(t0))
	}
}

// timerLive reports whether t still matches its node. A timer goes stale
// when its node finishes, or wakes early and sleeps again with another
// deadline.
func (r *run) timerLive(t timer) bool {
	return r.nodes[t.id].deadline == t.at && !r.finished[t.id]
}

// compactTimers drops the stale timers of a shard's heap, which pile up
// when sleepers keep waking early, and keeps one per (deadline, node), so
// the heap holds at most one timer per node of the shard afterwards. A
// sorted slice is a valid min-heap.
func (r *run) compactTimers(h *timerHeap) {
	live := (*h)[:0]
	for _, t := range *h {
		if r.timerLive(t) {
			live = append(live, t)
		}
	}
	slices.SortFunc(live, cmpTimer)
	*h = slices.Compact(live)
}

// wakeQuiet puts node id of shard j into the next release for a reason
// other than input. A node the round offered nothing gets an empty inbox; a
// receiver's was filled above.
func (r *run) wakeQuiet(j int, id NodeID) {
	if r.recvCounts[id] == 0 {
		r.nodes[id].inbox = r.nodes[id].inbox[:0]
	}
	r.next.add(j, id)
}

// deliverRound enforces capacities, applies faults, and hands each live node
// its inbox for the round just completed. Work is partitioned over r.workers
// shards: senders are sharded for capacity/fault filtering, receivers for
// grouping, overload truncation, and inbox fill. Returns false if the round
// was aborted by a panic (in a delivery worker or in the Probe).
func (r *run) deliverRound() bool {
	if err := r.runShards(r.sendFn); err != nil {
		r.fail(err)
		return false
	}
	r.mergeShardStats()
	if r.probing {
		// The per-round send-load maximum must be read between the phases:
		// recvPhase zeroes the shard stats it is about to reuse.
		r.roundMaxSend = 0
		for i := range r.shardStats {
			r.roundMaxSend = max(r.roundMaxSend, r.shardStats[i].MaxSendLoad)
		}
	}

	if err := r.runShards(r.recvFn); err != nil {
		r.fail(err)
		return false
	}
	r.mergeShardStats()

	r.stats.Rounds++
	if r.probing {
		if err := r.probeRound(); err != nil {
			r.fail(err)
			return false
		}
	}
	return true
}

// probeRound assembles the just-completed round's RoundSample from the
// cumulative-stats deltas and the per-shard scratch (which still holds phase-B
// values here) and hands it to Config.Probe, with the same panic recovery as
// the FaultPlan. Runs on the coordinator goroutine while every node is
// parked, before the next sendPhase resets the buckets that Sent aliases.
func (r *run) probeRound() (err error) {
	defer recoverDeliveryPanic(&err)
	cur, prev := &r.stats, &r.prevStats
	s := RoundSample{
		Round:             cur.Rounds - 1,
		Messages:          int(cur.Messages - prev.Messages),
		Words:             int(cur.Words - prev.Words),
		Finished:          r.cfg.N - r.alive,
		Down:              r.downCount,
		MaxSendLoad:       r.roundMaxSend,
		RecvThrottled:     int(cur.DroppedRecvOverflow - prev.DroppedRecvOverflow),
		DroppedFault:      int(cur.DroppedFault - prev.DroppedFault),
		DroppedDead:       int(cur.DroppedDead - prev.DroppedDead),
		DroppedToFinished: int(cur.DroppedToFinished - prev.DroppedToFinished),
	}
	s.Delivered = s.Messages - s.RecvThrottled
	for i := range r.shardStats {
		p := &r.shardStats[i]
		s.MaxRecvOffered = max(s.MaxRecvOffered, p.MaxRecvOffered)
		s.MaxRecvDelivered = max(s.MaxRecvDelivered, p.MaxRecvDelivered)
		s.Active += int(r.shardActive[i])
	}
	for i := range r.timing {
		t := &r.timing[i]
		t.SendNanos = r.probeSend[i]
		t.RecvNanos = r.probeRecv[i]
		t.Sent = r.buckets[i]
		t.BarrierWaitNanos, t.ComputeNanos = 0, 0
		// Shards with no node released for the round never arrive; their
		// stale timestamp (and any clock oddity) reads as zero wait and zero
		// compute.
		if at := r.bar.times[i]; r.bar.shards[i].armed > 0 && at != 0 {
			if at < r.wakeNanos {
				t.BarrierWaitNanos = r.wakeNanos - at
			}
			if at > r.bar.releasedAt {
				t.ComputeNanos = at - r.bar.releasedAt
			}
		}
	}
	r.prevStats = *cur
	r.cfg.Probe(s, r.timing)
	return nil
}

// recoverDeliveryPanic converts a panic between barriers, in user callback
// code (FaultPlan, Probe) or in a delivery worker, into an error via
// the named return, so the run aborts cleanly instead of crashing the process or
// deadlocking the node goroutines.
func recoverDeliveryPanic(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("ncc: round delivery panicked: %v\n%s", v, debug.Stack())
	}
}

func (r *run) mergeShardStats() {
	for i := range r.shardStats {
		p := &r.shardStats[i]
		r.stats.Messages += p.Messages
		r.stats.Words += p.Words
		r.stats.DroppedRecvOverflow += p.DroppedRecvOverflow
		r.stats.DroppedFault += p.DroppedFault
		r.stats.DroppedToFinished += p.DroppedToFinished
		r.stats.DroppedDead += p.DroppedDead
		r.stats.MaxSendLoad = max(r.stats.MaxSendLoad, p.MaxSendLoad)
		r.stats.MaxRecvOffered = max(r.stats.MaxRecvOffered, p.MaxRecvOffered)
		r.stats.MaxRecvDelivered = max(r.stats.MaxRecvDelivered, p.MaxRecvDelivered)
	}
}

// sortReceivedByFrom is a small insertion sort: post-truncation inboxes hold
// at most cap = O(log n) messages, where it beats sort.SliceStable and
// allocates nothing. It is stable, preserving send order per sender.
func sortReceivedByFrom(msgs []Received) {
	for i := 1; i < len(msgs); i++ {
		e := msgs[i]
		j := i - 1
		for j >= 0 && msgs[j].From > e.From {
			msgs[j+1] = msgs[j]
			j--
		}
		msgs[j+1] = e
	}
}

// runShards executes fn(i) for every shard 0..workers-1, inline when the run
// is serial and on the worker pool otherwise. A panic inside fn (say, from a
// LinkCut slice shorter than N) is returned as an error instead of crashing
// the process.
func (r *run) runShards(fn func(int)) (err error) {
	if r.pool == nil {
		defer recoverDeliveryPanic(&err)
		for i := 0; i < r.workers; i++ {
			fn(i)
		}
		return nil
	}
	return r.pool.run(r.workers, fn)
}

// workerPool is a fixed set of goroutines executing round-delivery shards.
// It exists so the engine does not pay a goroutine spawn per phase per round;
// the dispatch WaitGroup and panic box live in the pool so a dispatch does
// not allocate either.
type workerPool struct {
	jobs chan poolJob
	wg   sync.WaitGroup
	box  panicBox
}

type poolJob struct {
	fn    func(int)
	shard int
	wg    *sync.WaitGroup
	panic *panicBox
}

type panicBox struct {
	mu  sync.Mutex
	err error
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{jobs: make(chan poolJob)}
	for i := 0; i < n; i++ {
		go func() {
			for j := range p.jobs {
				err := func() (err error) {
					defer recoverDeliveryPanic(&err)
					j.fn(j.shard)
					return nil
				}()
				if err != nil {
					j.panic.mu.Lock()
					if j.panic.err == nil {
						j.panic.err = err
					}
					j.panic.mu.Unlock()
				}
				// Done must come after the error store: the dispatcher reads
				// the box as soon as Wait returns.
				j.wg.Done()
			}
		}()
	}
	return p
}

// run dispatches fn over shards 0..n-1 and waits for completion, returning
// the first panic (if any) as an error. Only the coordinator calls this, one
// dispatch at a time, so the pool-owned WaitGroup and box can be reused.
func (p *workerPool) run(n int, fn func(int)) error {
	p.box.err = nil
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- poolJob{fn: fn, shard: i, wg: &p.wg, panic: &p.box}
	}
	p.wg.Wait()
	return p.box.err
}

func (p *workerPool) close() {
	close(p.jobs)
}
