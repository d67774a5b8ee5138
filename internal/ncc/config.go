package ncc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
)

// NodeID identifies a node of the Node-Capacitated Clique. Ids are dense:
// 0..N-1, known to every node (the clique assumption of the model).
type NodeID = int

// Outage takes one node out of service at a round boundary. A plain outage
// suspends the node: its program keeps executing, but every message it sends
// or is sent is suppressed until a Revival returns it to service (the node is
// partitioned, not stopped — the engine cannot checkpoint a program). Kill
// makes the outage permanent fail-stop: the node's program is unwound at its
// next round barrier and it retires with no output, exactly like a program
// that never returned.
type Outage struct {
	Node NodeID
	Kill bool
}

// Revival returns a suspended node to service. Reset additionally reseeds the
// node's private random source (from the run seed and the revival round, so
// runs stay deterministic) and discards its unsent outbox, modelling a rejoin
// with fresh volatile state; program variables are preserved either way.
type Revival struct {
	Node  NodeID
	Reset bool
}

// LinkCut is one round's set of severed links: every message into a node
// whose To entry is set, or out of a node whose From entry is set, is lost.
// A nil slice cuts nothing on its side; a non-nil one has one entry per node.
type LinkCut struct {
	To, From []bool
}

// FaultPlan is the engine's one fault input: it schedules node-liveness
// transitions and link loss. The coordinator processes rounds r = 0, 1, 2,
// ... in order and asks Transitions and Loss once each about every round it
// processes, while every node is suspended between rounds. The returned
// outages and revivals apply before the round's messages move. Loss gives
// the round's i.i.d. drop probability p and its link cut, which the sender
// phase applies to every message that leaves a live sender for a live
// receiver: first one seeded drop draw when p > 0, then the cut.
//
// After a round that releases no node, the coordinator asks
// NextEvent(round) for the smallest r >= round at which Transitions(r) may
// be non-empty, and moves straight to the earliest of that round, the next
// sleeper's wake-up and MaxRounds. The rounds it skips are not processed:
// nothing is sent in them, so their loss does not matter, and Transitions
// and Loss are not asked about them. A plan that cannot tell returns round,
// which skips nothing; math.MaxInt means no transition is left.
//
// Implementations must be pure functions of the plan and the round — never
// of goroutine scheduling or of which rounds were asked about — to preserve
// the engine's bit-for-bit determinism; they run on the coordinator
// goroutine only, and a panic in any method aborts the run with an error.
// Transitions naming finished, already-down (for outages), or in-service
// (for revivals) nodes are ignored.
type FaultPlan interface {
	Transitions(round int) (down []Outage, up []Revival)
	Loss(round int) (p float64, cut LinkCut)
	NextEvent(round int) int
}

// Config parameterizes a simulation run.
type Config struct {
	// N is the number of nodes; must be at least 1 and at most
	// math.MaxInt32 (node ids travel as int32 in every Envelope).
	N int

	// CapFactor is the constant hidden in the O(log n) capacity bound:
	// a node may send and receive up to CapFactor*ceil(log2 N) messages
	// per round (at least 1). Defaults to DefaultCapFactor.
	CapFactor int

	// MaxWords bounds the payload size of a single message in words of
	// Theta(log n) bits. Defaults to DefaultMaxWords. Oversized payloads
	// panic: they are always a program bug, never a network condition.
	MaxWords int

	// Seed makes the run deterministic.
	Seed int64

	// Deprecated: Strict is ignored. A node that sends more than Cap()
	// messages in one round always panics, like an oversized payload;
	// receive overflow is resolved by dropping, as the model specifies. The
	// field is kept only because benchmark/sim.go sets it.
	Strict bool

	// MaxRounds aborts the run with ErrMaxRounds when exceeded, so a
	// protocol bug fails a test instead of hanging it. Defaults to
	// DefaultMaxRounds.
	MaxRounds int

	// FaultPlan, if non-nil, injects faults: node crashes, outages, and
	// revivals, and per-round message loss (see the FaultPlan docs for timing
	// and determinism requirements). Nil means a reliable network, which is
	// what the model specifies below the capacity bound. A non-nil plan
	// also switches the engine to failure-isolation mode: a
	// panicking node program is retired as a crashed node (counted in
	// Stats.NodeFailures) instead of aborting the run, and Stats reports the
	// unfinished and down node sets at the end of the run. A send over the
	// node's capacity is a program bug, not a crash: it still fails the run.
	FaultPlan FaultPlan

	// Probe, if non-nil, receives one RoundSample per completed round — the
	// engine's telemetry plane (see RoundProbe). It is called on the
	// coordinator goroutine between rounds. When nil, the engine performs no
	// probe work at all: the plane is zero-overhead when off.
	Probe RoundProbe

	// Workers is the number of goroutines the coordinator uses to filter,
	// group, and deliver each round's traffic. 0 (the default) means
	// DefaultWorkers(N): GOMAXPROCS, but at most one worker per 128 nodes.
	// Runs are bit-for-bit deterministic for a fixed Seed regardless of
	// Workers: every random decision is seeded per (round, node), never
	// drawn from a shared stream.
	Workers int

	// NodeCaps, if non-nil, gives every node its own per-round send/receive
	// capacity in messages (the paper's weighted-capacity extension for
	// heterogeneous real networks), overriding the uniform Cap() for
	// enforcement. len(NodeCaps) must equal N and every entry must be >= 1.
	// Shared pacing constants derived inside node programs should use
	// Context.MinCap so every node computes the same schedule.
	NodeCaps []int

	// Cancel, if non-nil, aborts the run when it becomes readable (typically
	// by closing it). The coordinator checks it at every round barrier, so an
	// in-flight run unwinds within one round of the cancellation: suspended
	// nodes are resumed into an abort that unwinds their programs, and Run
	// returns ErrCanceled. A stretch
	// of rounds that release no node is skipped in one step and checked
	// after it (with a Probe attached, after each skipped round's sample).
	// Cancellation cannot preempt a node program that never reaches its next
	// EndRound; that is what MaxRounds-style guards are for.
	Cancel <-chan struct{}
}

// Default configuration constants.
const (
	DefaultCapFactor = 8
	DefaultMaxWords  = 12
	DefaultMaxRounds = 1 << 21
)

// ErrMaxRounds reports that a run exceeded Config.MaxRounds.
var ErrMaxRounds = errors.New("ncc: exceeded maximum number of rounds")

// ErrCanceled reports that a run was aborted through Config.Cancel.
var ErrCanceled = errors.New("ncc: run canceled")

func (c Config) withDefaults() Config {
	if c.CapFactor == 0 {
		c.CapFactor = DefaultCapFactor
	}
	if c.MaxWords == 0 {
		c.MaxWords = DefaultMaxWords
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = DefaultMaxRounds
	}
	if c.Workers == 0 {
		c.Workers = DefaultWorkers(c.N)
	}
	return c
}

// nodesPerWorker is the smallest shard worth a delivery worker of its own.
// Below it a second worker costs more in dispatch than it saves in delivery
// (see BenchmarkEngineSparse/Dense at n=64..1024), and a round that releases
// fewer nodes than this resumes them on the coordinator alone.
const nodesPerWorker = 128

// DefaultWorkers is the delivery-worker count of an n-node run whose
// Config.Workers is 0: GOMAXPROCS, but at most one worker per 128 nodes (and
// at least one). Schedulers that budget engine workers across runs use it to
// ask for what a run can actually use.
func DefaultWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/nodesPerWorker))
}

func (c Config) validate() error {
	if c.N < 1 || c.N > math.MaxInt32 {
		return fmt.Errorf("ncc: config N = %d, need 1 <= N <= %d", c.N, math.MaxInt32)
	}
	if c.CapFactor < 1 {
		return fmt.Errorf("ncc: config CapFactor = %d, need >= 1", c.CapFactor)
	}
	if c.Workers < 0 {
		return fmt.Errorf("ncc: config Workers = %d, need >= 0", c.Workers)
	}
	if c.MaxWords < 1 {
		return fmt.Errorf("ncc: config MaxWords = %d, need >= 1", c.MaxWords)
	}
	if c.NodeCaps != nil {
		if len(c.NodeCaps) != c.N {
			return fmt.Errorf("ncc: config NodeCaps has %d entries for N = %d", len(c.NodeCaps), c.N)
		}
		for id, cp := range c.NodeCaps {
			if cp < 1 {
				return fmt.Errorf("ncc: config NodeCaps[%d] = %d, need >= 1", id, cp)
			}
		}
	}
	return nil
}

// Cap returns the uniform per-round, per-direction message capacity for this
// config — the capacity of every node when NodeCaps is nil, and the base
// value heterogeneous capacity policies scale from.
func (c Config) Cap() int {
	f := c.CapFactor
	if f == 0 {
		f = DefaultCapFactor
	}
	return f * max(1, CeilLog2(c.N))
}

// MinCap returns the smallest per-node capacity of the run: Cap() for uniform
// configs, the minimum NodeCaps entry otherwise. Node programs use it for
// pacing constants that must be identical at every node.
func (c Config) MinCap() int {
	if len(c.NodeCaps) == 0 {
		return c.Cap()
	}
	m := c.NodeCaps[0]
	for _, cp := range c.NodeCaps[1:] {
		if cp < m {
			m = cp
		}
	}
	return m
}

// CeilLog2 returns ceil(log2(n)) for n >= 1 (0 for n = 1).
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// FloorLog2 returns floor(log2(n)) for n >= 1 (-1 for n < 1, matching the
// historical loop-based implementation).
func FloorLog2(n int) int {
	if n < 1 {
		return -1
	}
	return bits.Len(uint(n)) - 1
}
