package ncc

import (
	"sync"
	"sync/atomic"
	"time"
)

// barrier is the engine's sharded round barrier. Nodes arrive by decrementing
// their shard's atomic countdown; the last arrival of the last non-empty
// shard performs exactly one wake of the coordinator. Release is by per-node
// wake tokens: every node owns a capacity-1 channel for the whole run (taken
// from tokenSets, or allocated) and receives exactly one token from it per
// round it runs. A send to a parked receiver hands the token over directly,
// so a round costs O(released) uncontended atomics plus one park/unpark per
// released node — no shared lock for woken nodes to pile onto, no per-round
// allocation and no serialized submit funnel.
//
// Only woken nodes are released. A node sleeping in AwaitInput stays parked
// on its token across rounds: the countdowns count only the nodes released
// for the round, and release sends tokens only to the members of the wake
// set the receiver phase built (a per-shard bitmap, see nodeSet), so it
// costs O(woken + n/64) and never looks at a sleeping node. A round that
// releases nobody arms no countdown, and the coordinator runs the next round
// without waiting (a fast-forwarded round).
//
// Abort closes every token channel once. A close never blocks and wakes
// parked and sleeping nodes and late arrivals alike; they observe the abort
// flag and unwind with errAborted. The abort flag is stored before the
// close, so a receive that returns because of the close always sees it.
type barrier struct {
	shards    []barrierShard
	remaining atomic.Int32    // non-empty shards that have not fully arrived
	aborted   atomic.Bool     // set once, before the token channels close
	wake      chan struct{}   // capacity 1; one send per completed barrier
	tokens    []chan struct{} // tokens[id]: node id's wake channel, capacity 1
	set       []chan struct{} // the whole reusable set tokens is a prefix of

	// times, when non-nil (probe plane on), records the UnixNano instant each
	// shard's countdown hit zero. The write sits on the arrival path's cold
	// branch — once per shard per round, not once per node — and is ordered
	// before the coordinator's read: it happens before the same goroutine's
	// remaining.Add, whose RMW chain is observed by the final arriver, whose
	// wake send the coordinator receives. releasedAt is the coordinator's
	// UnixNano at the last release (or at run start), taken only while
	// probing; times[i] - releasedAt is shard i's program-compute span.
	times      []int64
	releasedAt int64
}

// barrierShard keeps each shard's countdown on its own cache line. armed is
// the count the current countdown started from: the shard's nodes released
// for the round.
type barrierShard struct {
	count atomic.Int32
	armed int32
	_     [56]byte // keep neighbouring shard countdowns off this cache line
}

// tokenSets recycles the wake channels of runs that ended without an abort,
// so a process running many small runs does not allocate n channels per run.
// It holds *[]chan struct{} values.
var tokenSets sync.Pool

func newBarrier(shards, nodes int) *barrier {
	b := &barrier{
		shards: make([]barrierShard, shards),
		wake:   make(chan struct{}, 1),
	}
	if set, ok := tokenSets.Get().(*[]chan struct{}); ok {
		b.set = *set
	}
	for len(b.set) < nodes {
		b.set = append(b.set, make(chan struct{}, 1))
	}
	b.tokens = b.set[:nodes]
	return b
}

// recycle hands the wake channels to a later run. Run calls it once every
// node goroutine has exited. An aborted run's channels are closed, so they are
// dropped; so would be a set with a token left in it, which would let a node
// of the next run pass its first barrier early. A clean run leaves none: each
// node took the last token it was sent before its program returned (a clean
// run ends only when every program has returned, so no node still sleeps).
func (b *barrier) recycle() {
	if b.aborted.Load() {
		return
	}
	for _, tok := range b.tokens {
		if len(tok) != 0 {
			return
		}
	}
	tokenSets.Put(&b.set)
}

// reset arms the barrier for the next round: shard i expects released[i]
// arrivals. It reports whether anyone will arrive at all. Only the
// coordinator calls this, strictly between barrier completion (wake
// received) and release, when no node is running.
func (b *barrier) reset(released []int32) bool {
	rem := int32(0)
	for i := range b.shards {
		b.shards[i].count.Store(released[i])
		b.shards[i].armed = released[i]
		if released[i] > 0 {
			rem++
		}
	}
	b.remaining.Store(rem)
	return rem > 0
}

// arrive records one node's arrival at the current barrier. The last arrival
// overall wakes the coordinator. The non-blocking send covers the post-abort
// case where the coordinator has already exited and stops draining wakes.
func (b *barrier) arrive(shard int) {
	if b.shards[shard].count.Add(-1) == 0 {
		if b.times != nil {
			b.times[shard] = time.Now().UnixNano()
		}
		if b.remaining.Add(-1) == 0 {
			select {
			case b.wake <- struct{}{}:
			default:
			}
		}
	}
}

// await parks node id until its next token and reports whether the run goes
// on (false: aborted). It takes exactly one token per call; a node must never
// skip the receive, or a token left in its buffer would let it pass the next
// barrier early.
func (b *barrier) await(id NodeID) bool {
	<-b.tokens[id]
	return !b.aborted.Load()
}

// release hands one token to every node in woken, the set the round just
// delivered built: the nodes it gave input, whose deadline came, or that the
// fault plan killed. At barrier completion each such node is parked on its
// token or about to park, and it took the previous token before arriving,
// so no send blocks. The walk costs O(woken + n/64).
func (b *barrier) release(woken *nodeSet) {
	if b.times != nil {
		b.releasedAt = time.Now().UnixNano()
	}
	for j := range b.shards {
		for id := woken.first(j); id >= 0; id = woken.next(j, id+1) {
			b.tokens[id] <- struct{}{}
		}
	}
}

// abort sets the abort flag and closes every token channel, once. Unlike a
// send, a close never blocks on a buffer that still holds the last release's
// token, and it is not used up by one receive: every later receive, by a
// parked node or a late arrival, returns at once.
func (b *barrier) abort() {
	if b.aborted.Swap(true) {
		return
	}
	for _, tok := range b.tokens {
		close(tok)
	}
}
