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

// Context is a node's handle on the network. Only the node's program may use
// it, and only on the goroutine the engine runs the program on (its
// coroutine, see coro): it is not safe for concurrent use. It lives in the
// run's node slab, which the next run reuses: a *Context must not be used
// after Run returns.
type Context struct {
	id NodeID
	r  *run
	// yield hands control back to the engine from the node's coroutine:
	// false at AwaitInput, true at the program's end. It returns false once
	// the coroutine is stopped.
	yield func(bool) bool
	// inProgram is set while the coroutine runs, or is suspended inside,
	// the node's program (runNode): the nodes a failed run must unwind.
	inProgram bool
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
	// before it yields; recvPhase reads it while the node is suspended, to
	// wake it in the round it yielded or to queue a timer, and to tell a
	// live timer from a stale one.
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
// arena. Only valid during delivery, while every sender is suspended (the
// end of the resume phase orders the arena writes before the delivery phases
// read them).
func (r *run) payloadWords(e *Envelope) []uint64 {
	return r.nodes[e.From].sendWords[e.a : e.a+uint64(e.width)]
}

func (c *Context) panicOversized(w int) {
	panic(fmt.Sprintf("ncc: node %d payload of %d words exceeds MaxWords=%d",
		c.id, w, c.r.cfg.MaxWords))
}

// EndRound submits the buffered messages for the round, suspends the node
// until every node running this round has done the same and the round is
// delivered, and returns the messages delivered to this node, ordered by
// sender id. The returned slice is reused at the next round and must not be
// retained across rounds, nor used after Run returns: the next run reuses
// its memory.
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
// A sleeping node stays suspended: the engine neither resumes it nor waits
// for it until a round delivers it at least one message, Round()
// reaches deadline, or the fault plan kills it. Rounds in which every live
// node sleeps are skipped in one step, up to the next round that can wake
// one (see FaultPlan.NextEvent). Pass NoDeadline to wait
// for input alone; a deadline at or below Round()+1 makes it a plain
// EndRound.
func (c *Context) AwaitInput(deadline int) []Received {
	r := c.r
	if r.err != nil {
		// The run failed: unwind without suspending, even from a deferred
		// EndRound of a program that fail is unwinding.
		panic(errAborted)
	}
	if len(c.out) > r.capOf(c.id) {
		panic(&capacityError{fmt.Sprintf("ncc: node %d sent %d messages in round %d, capacity is %d",
			c.id, len(c.out), c.round, r.capOf(c.id))})
	}
	c.deadline = deadline
	if !c.yield(false) || r.err != nil {
		panic(errAborted)
	}
	if r.killed != nil && r.killed[c.id] {
		// Fail-stopped by the fault plan while suspended: unwind before the
		// program sees this round's delivery. runNode's recover treats this
		// as a normal finish with no output.
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

// errAborted is the sentinel panic used to unwind node programs when the
// coordinator aborts a run.
var errAborted = &abortError{}

type abortError struct{}

func (*abortError) Error() string { return "ncc: run aborted" }

// errCrashed is the sentinel panic used to unwind a single node program
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
	shardWidth int        // ceil(N / workers); node id / shardWidth = its shard
	nodes      []Context  // the node slab, reused by the next run
	mem        *engineMem // the memory the run took, handed back by recycle
	coros      []coro     // coros[id]: slab node id's coroutine; the whole slab's
	errCh      chan error // capacity 1: the coordinator acts on the first error only
	program    func(*Context)
	stats      Stats
	err        error // set only by fail, which unwinds every node program
	pool       *workerPool
	resumeFn   func(int)

	// provisionOut: outboxes may grow straight to cap slots (see growOut).
	provisionOut bool

	// finMu guards finQ, the ids of nodes whose programs ended in the
	// current resume phase, and goexits, those of nodes whose program called
	// runtime.Goexit, whose coroutines stay suspended inside it (see
	// runNode). Shards' workers append to them concurrently; the coordinator
	// reads them only after the phase, when no node is running.
	finMu   sync.Mutex
	finQ    []NodeID
	goexits []NodeID

	// Round state, touched only by the coordinator and the delivery phases,
	// while every node is suspended.
	// released holds the nodes released for the current round: only they
	// can have sent anything. recvPhase builds next, the nodes the round
	// wakes, from four sources: its receivers, the released nodes whose
	// deadline is due, the due timers (a released node going to sleep with a
	// finite deadline pushes one onto its shard's heap) and the round's kills.
	// woke[shard] counts next's members, which the next resume phase
	// resumes, once the coordinator has swapped the two sets. So a round costs
	// O(released + receivers + messages + n/64), however many nodes sleep.
	finished []bool // finished[id]: node id's program has returned
	released nodeSet
	next     nodeSet
	woke     []int32
	timers   []timerHeap

	// Liveness plane, allocated only when cfg.FaultPlan is set. down[id]
	// suppresses node id's traffic in both directions; killed[id] unwinds its
	// program when it is next resumed. Both are written by the coordinator
	// while every node is suspended and read by nodes and delivery workers
	// afterwards, so the phases' dispatch orders every access. nodeFailures
	// counts isolated node panics (guarded by finMu, folded into stats after
	// the run).
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
	// probeSend/probeRecv are per-shard phase durations. resumedAt is the
	// coordinator's UnixNano at the start of the last resume phase and
	// wakeNanos at its end; shardDone[j] is when shard j's walk of the phase
	// ended, 0 when it resumed nobody. shardDone[j] - resumedAt is shard j's
	// program-compute span, wakeNanos - shardDone[j] its wait for the rest.
	probing      bool
	prevStats    Stats
	roundMaxSend int
	resumedAt    int64
	wakeNanos    int64
	shardDone    []int64
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
// or word view of a run may be used after Run returns. It also leaves its
// nodes' coroutines, suspended, so after Run returns up to 2N of them (the
// spare's slab) stay alive until a later run drops the spare.
//
// Run resumes and stops node coroutines on its own goroutine and on its
// delivery workers, so it must not be called from a goroutine locked to its
// OS thread (runtime.LockOSThread): the runtime refuses to switch to a
// coroutine from a thread-locked goroutine other than its creator.
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
	if cfg.FaultPlan != nil {
		r.down = make([]bool, cfg.N)
		r.killed = make([]bool, cfg.N)
		r.crashed = make([]bool, cfg.N)
	}
	r.sendFn = r.sendPhase
	r.recvFn = r.recvPhase
	r.resumeFn = r.resumeShard
	if cfg.Probe != nil {
		r.probing = true
		r.activeAt = make([]int, cfg.N)
		r.shardActive = make([]int32, w)
		r.probeSend = make([]int64, w)
		r.probeRecv = make([]int64, w)
		r.timing = make([]ShardTiming, w)
		r.shardDone = make([]int64, w)
	}
	if w > 1 {
		r.pool = newWorkerPool(w)
		defer r.pool.close()
	}
	for i := 0; i < w; i++ {
		lo, hi := r.shardRange(i)
		r.woke[i] = int32(hi - lo)
		for id := lo; id < hi; id++ {
			r.released.add(i, id) // every node runs round 0
		}
	}
	r.program = program
	r.coordinate()
	if cfg.FaultPlan != nil {
		// Nodes whose programs ended in a resume phase after which the run
		// failed are finished though the coordinator never retired them.
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

// runNode runs the program on node c, in c's coroutine. A normal return, a
// fail-stop, an isolated panic or runtime.Goexit queues the node for
// retirement, so the round completes without it; any other panic fails the
// run.
func (r *run) runNode(c *Context) {
	c.inProgram = true
	returned := false
	defer func() {
		c.inProgram = false
		v := recover()
		if v == errAborted {
			return
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
		// Normal return, isolated crash or Goexit: queue the node for
		// retirement.
		goexit := v == nil && !returned
		r.finMu.Lock()
		if v != nil {
			r.crashed[c.id] = true // fail-stop or isolated panic: no output
		}
		r.finQ = append(r.finQ, c.id)
		if goexit {
			r.goexits = append(r.goexits, c.id)
		}
		r.finMu.Unlock()
		if goexit {
			// runtime.Goexit: the program ends as if it returned. Left to
			// run its course, the Goexit would end the coroutine and then,
			// re-raised by iter.Pull, the goroutine that resumed it: a
			// delivery worker, or Run's caller. So the coroutine yields from
			// inside it, and recycle ends it on a goroutine of its own.
			c.yield(true)
		}
	}()
	r.program(c)
	returned = true
}

// engineMem is the memory of a run's nodes and of its delivery: the node
// slab with each node's outbox, inbox and word arenas, the nodes'
// coroutines, the buckets, and the run's per-node and per-shard scratch. A
// run hands it to spareMem when it ends, and the next run takes it from
// there by atomic swap instead of allocating; every field is re-initialised
// on reuse, and only capacity carries over. The slab is len(nodes) long, the
// size of the run that allocated it, and so is coros, whose coros[i] runs
// the programs of nodes[i].
// The scratch arrays are sized by the node count of a run on the slab, at
// most len(nodes), or by its shards.
type engineMem struct {
	nodes   []Context
	coros   []coro
	buckets [][]Envelope // the bucket grid, flattened sender-major

	recvCounts, recvWordCounts []int32
	finQ, receivers            []NodeID // receivers: the shards' lists, back to back
	finished                   []bool
	released, next             []uint64 // the two node sets' words
	timers                     []timerHeap
	woke                       []int32
	shardStats                 []Stats
	bucketPeak                 []int
}

// drop stops m's coroutines but the empty slots; m must not be used
// afterwards.
func (m *engineMem) drop() {
	for _, co := range m.coros {
		if co.stop != nil {
			co.stop()
		}
	}
}

// spareMem holds the memory of the last run, or nil. It is one slot, not a
// pool: a pool's per-P caches miss whenever the next run starts on another
// P, and two sets stay live. Concurrent runs find it empty and allocate.
var spareMem atomic.Pointer[engineMem]

// ReleaseSpare drops what the last run left for the next one: its memory and
// its suspended node coroutines. The next run allocates afresh and creates
// its coroutines from the goroutine that calls Run, so they carry that
// goroutine's profiler labels (runtime/pprof), where reused coroutines carry
// the labels of the run that created them. Like Run, it must not be called
// from a goroutine locked to its OS thread.
func ReleaseSpare() {
	if m := spareMem.Swap(nil); m != nil {
		m.drop()
	}
}

// takeSpare takes the spare for a run of n nodes. It reuses it only when it
// has between n and 2n nodes, and otherwise drops it, so a large run's memory
// and coroutines are not pinned behind a stream of small runs; an empty
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

// take installs m as the run's memory, allocating what m lacks. A new slab
// gets one new coroutine per slab node, and an empty slot (left by a Goexit)
// gets one too; a reused slab keeps its suspended coroutines.
func (r *run) take(m *engineMem) {
	n, w := r.cfg.N, r.workers
	if len(m.nodes) < n {
		m.nodes = make([]Context, n)
	}
	if m.coros == nil {
		m.coros = make([]coro, len(m.nodes))
	}
	for i := range m.coros {
		if m.coros[i].next == nil {
			m.coros[i] = newCoro(&m.nodes[i])
		}
	}
	r.coros = m.coros
	r.nodes = m.nodes[:n]
	for i := range r.nodes {
		c := &r.nodes[i]
		*c = Context{id: i, r: r,
			out: c.out[:0], inbox: c.inbox[:0], sendWords: c.sendWords[:0], inWords: c.inWords[:0]}
		c.pcg.Seed(uint64(r.cfg.Seed)^0x5851f42d4c957f2d, uint64(i)+1)
		c.src = *rand.New(&c.pcg)
		c.rng = &c.src
	}
	flat := make([][]Envelope, w*w)
	copy(flat, m.buckets)
	r.buckets = make([][][]Envelope, w)
	for i := range r.buckets {
		r.buckets[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}

	// The scratch arrays, allocated only when short: the finish queue and
	// the receiver lists are written before they are read, and the rest is
	// cleared.
	m.finQ = slices.Grow(m.finQ[:0], n)
	m.receivers = slices.Grow(m.receivers[:0], w*r.shardWidth)[:w*r.shardWidth]
	m.bucketPeak = zeroed(m.bucketPeak, w*w)
	m.recvCounts = zeroed(m.recvCounts, n)
	m.recvWordCounts = zeroed(m.recvWordCounts, n)
	m.finished = zeroed(m.finished, n)
	stride := (r.shardWidth + 63) / 64
	m.released = zeroed(m.released, w*stride)
	m.next = zeroed(m.next, w*stride)
	m.woke = zeroed(m.woke, w)
	m.shardStats = zeroed(m.shardStats, w)
	// A heap keeps its capacity, which compaction bounds by its shard's width.
	m.timers = slices.Grow(m.timers[:0], w)[:w]
	for j := range m.timers {
		m.timers[j] = m.timers[j][:0]
	}
	r.mem = m
	r.bucketPeak, r.recvCounts, r.recvWordCounts = m.bucketPeak, m.recvCounts, m.recvWordCounts
	// Sized once: every node retires once, and a shard has at most
	// shardWidth receivers, so neither grows by appending.
	r.finQ = m.finQ
	r.receivers = make([][]NodeID, w)
	for j := range r.receivers {
		r.receivers[j] = m.receivers[j*r.shardWidth : j*r.shardWidth : (j+1)*r.shardWidth]
	}
	r.finished = m.finished
	r.released = nodeSet{words: m.released, stride: stride, width: r.shardWidth}
	r.next = nodeSet{words: m.next, stride: stride, width: r.shardWidth}
	r.timers, r.woke, r.shardStats = m.timers, m.woke, m.shardStats
}

// zeroed returns s resized to n zero elements, allocating only when its
// capacity falls short.
func zeroed[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// recycle hands the run's memory to spareMem, dropping the spare it
// replaces (a concurrent run's); Run calls it last, once every node's program
// has ended. It hands back the coroutines, each suspended at the end of its
// node's program, whether the run ended cleanly or fail unwound it. A
// coroutine suspended inside a runtime.Goexit (see runNode) is ended by a
// stop on a goroutine of its own, which the Goexit it re-raises ends in
// turn, and the run hands back an empty slot in its place.
//
// The spare keeps no pointer to the finished run, and no more memory than
// this run used or a dense run of its size needs, so a stream of runs does
// not leave it holding the largest arena each node or bucket ever had: an
// outbox or inbox over max(16, 2·cap) entries of its node (a hot receiver's
// inbox is sized to all it was offered), a word arena over MaxWords times
// that, and a bucket over max(16, 2·its peak length in this run) are dropped.
func (r *run) recycle() {
	r.endGoexits()
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
	m := r.mem
	m.nodes, m.coros, m.buckets = nodes, r.coros, buckets
	if old := spareMem.Swap(m); old != nil {
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

// fail records the abort cause and resumes, once, each node suspended
// inside its program, whose AwaitInput then panics errAborted: the program
// unwinds to its coroutine's end-of-program yield, where the next run resumes
// it, as it would a finished node. A node whose panic failed the run already
// sits there. The coordinator calls it while no worker is running.
func (r *run) fail(err error) {
	r.err = err
	r.endGoexits()
	for id := range r.nodes {
		if r.nodes[id].inProgram {
			r.coros[id].next()
		}
	}
}

// endGoexits ends the coroutines suspended inside a runtime.Goexit (see
// runNode) and empties their slots. Each is stopped on a goroutine of its
// own, which the Goexit, re-raised by the stop, ends in turn.
func (r *run) endGoexits() {
	for _, id := range r.goexits {
		go r.coros[id].stop()
		r.coros[id] = coro{}
	}
	r.goexits = nil
}

func (r *run) coordinate() {
	r.alive = r.cfg.N
	for {
		if !r.resumeReleased() {
			return
		}
		// Retire nodes whose programs ended in the resume phase. No node is
		// running here, so draining finQ and reusing its backing array
		// cannot race with an append.
		for _, id := range r.finQ {
			r.finished[id] = true
			r.alive--
			if r.down != nil && r.down[id] {
				// A killed node retiring moves from the down count to the
				// finished count.
				r.downCount--
			}
		}
		r.finQ = r.finQ[:0]
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
		r.released, r.next = r.next, r.released
		if r.releasedCount() == 0 && !r.skipQuiet() {
			return
		}
	}
}

// releasedCount returns the number of nodes released for the round.
func (r *run) releasedCount() int {
	k := 0
	for _, c := range r.woke {
		k += int(c)
	}
	return k
}

// resumeReleased is the round's resume phase: it runs the program of every
// node released for the round up to its next AwaitInput or its end. Each
// shard's nodes are resumed in ascending id order by one delivery worker, or
// by the coordinator itself when the round released fewer than
// nodesPerWorker nodes, where a dispatch would cost more than it spreads.
// It reports whether the run goes on: a node's panic that fails the run, or
// a cancellation, fails it here.
func (r *run) resumeReleased() bool {
	if r.probing {
		r.resumedAt = time.Now().UnixNano()
	}
	var err error
	if r.releasedCount() < nodesPerWorker {
		err = r.runShardsInline(r.resumeFn)
	} else {
		err = r.runShards(r.resumeFn)
	}
	if r.probing {
		r.wakeNanos = time.Now().UnixNano()
	}
	if err != nil {
		r.fail(err)
		return false
	}
	select {
	case err := <-r.errCh:
		r.fail(err)
		return false
	case <-r.cfg.Cancel: // nil channel when cancellation is unused
		r.fail(ErrCanceled)
		return false
	default:
		return true
	}
}

// resumeShard resumes shard j's released nodes in ascending id order.
func (r *run) resumeShard(j int) {
	for id := r.released.first(j); id >= 0; id = r.released.next(j, id+1) {
		r.coros[id].next()
	}
	if r.probing {
		r.shardDone[j] = 0
		if r.woke[j] > 0 {
			r.shardDone[j] = time.Now().UnixNano()
		}
	}
}

// skipQuiet passes, in one step, the rounds after one that released no
// node. Until a node runs again, a round sends nothing, so it wakes a node
// only if a timer comes due in it or the fault plan has a transition for
// it; and the round count may not pass MaxRounds. So the coordinator moves
// the round count straight to the first round that can do anything: the
// smallest of the earliest live timer's at-1, the plan's NextEvent and
// MaxRounds. The stale timers on top of a heap are popped first, as the
// round they come due in would drop them, so they do not end the jump early.
// Transitions and Loss are not asked about the rounds skipped. With a probe
// attached each skipped round still gets its sample, the one stepping it
// would give, and Cancel is checked after each; without one, the next round
// checks it. It returns false when the run failed.
func (r *run) skipQuiet() bool {
	round := r.stats.Rounds
	to := r.cfg.MaxRounds
	for j := range r.timers {
		h := &r.timers[j]
		for len(*h) > 0 && !r.timerLive((*h)[0]) {
			h.pop()
		}
		if len(*h) > 0 {
			to = min(to, (*h)[0].at-1)
		}
	}
	if r.cfg.FaultPlan != nil && to > round {
		next, err := r.nextEvent(round)
		if err != nil {
			r.fail(err)
			return false
		}
		to = min(to, next)
	}
	if !r.probing {
		r.stats.Rounds = max(round, to)
		return true
	}
	for i := range r.buckets {
		for j := range r.buckets[i] {
			r.buckets[i][j] = r.buckets[i][j][:0]
		}
	}
	for r.stats.Rounds < to {
		r.stats.Rounds++
		if err := r.probeQuiet(); err != nil {
			r.fail(err)
			return false
		}
		select {
		case <-r.cfg.Cancel: // nil channel when cancellation is unused
			r.fail(ErrCanceled)
			return false
		default:
		}
	}
	return true
}

// nextEvent asks the fault plan for its next transition round at or after
// round; a panicking plan is returned as an error.
func (r *run) nextEvent(round int) (next int, err error) {
	defer recoverDeliveryPanic(&err)
	return r.cfg.FaultPlan.NextEvent(round), nil
}

// probeQuiet hands the probe the sample of a skipped round: what stepping
// the round gives, that is no traffic, the same finished and down counts,
// empty Sent views (skipQuiet emptied the buckets) and zero timings.
func (r *run) probeQuiet() (err error) {
	defer recoverDeliveryPanic(&err)
	for i := range r.timing {
		r.timing[i] = ShardTiming{Sent: r.buckets[i]}
	}
	r.cfg.Probe(RoundSample{Round: r.stats.Rounds - 1, Finished: r.cfg.N - r.alive, Down: r.downCount}, r.timing)
	return nil
}

// applyFaults asks the fault plan for round's liveness transitions and link
// loss, and applies the transitions, while every live node is suspended.
// Outages hitting finished or already-down nodes are ignored (except
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
// suspended, before the next sendPhase resets the buckets that Sent aliases.
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
		// Shards with no node released for the round resumed nobody; their
		// zero timestamp (and any clock oddity) reads as zero wait and zero
		// compute.
		if at := r.shardDone[i]; at != 0 {
			if at < r.wakeNanos {
				t.BarrierWaitNanos = r.wakeNanos - at
			}
			if at > r.resumedAt {
				t.ComputeNanos = at - r.resumedAt
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
func (r *run) runShards(fn func(int)) error {
	if r.pool == nil {
		return r.runShardsInline(fn)
	}
	return r.pool.run(r.workers, fn)
}

// runShardsInline is runShards on the coordinator alone.
func (r *run) runShardsInline(fn func(int)) (err error) {
	defer recoverDeliveryPanic(&err)
	for i := 0; i < r.workers; i++ {
		fn(i)
	}
	return nil
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
