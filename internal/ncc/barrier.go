package ncc

import (
	"sync/atomic"
	"time"
)

// barrier is the engine's sharded round barrier. Nodes arrive by decrementing
// their shard's atomic countdown; the last arrival of the last non-empty
// shard performs exactly one wake of the coordinator. Release is by per-node
// wake tokens: every node owns a capacity-1 channel (taken with the rest of
// the run's memory from the last run, or allocated), on which its executor
// receives exactly one token to start the run and one per further round it
// runs. A send to a parked receiver hands the token over directly, so a
// round costs O(released) uncontended atomics plus one park/unpark per
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
// Abort closes every token channel of the slab once, the run's and those of
// the slab nodes past it. A close never blocks and wakes parked and sleeping
// nodes and late arrivals alike; they observe the abort flag and unwind
// with errAborted, and every executor then leaves its loop. The abort flag
// is stored before the close, so a receive that returns because of the close
// always sees it.
type barrier struct {
	shards    []barrierShard
	remaining atomic.Int32    // non-empty shards that have not fully arrived
	aborted   atomic.Bool     // set once, before the token channels close
	wake      chan struct{}   // capacity 1; one send per completed barrier
	tokens    []chan struct{} // tokens[id]: node id's wake channel, capacity 1; cap: the slab's

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

// newBarrier returns a barrier over shards shards whose nodes park on
// tokens, one empty open channel per node.
func newBarrier(shards int, tokens []chan struct{}) *barrier {
	return &barrier{
		shards: make([]barrierShard, shards),
		wake:   make(chan struct{}, 1),
		tokens: tokens,
	}
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

// abort sets the abort flag and closes every token channel of the slab,
// once. Unlike a send, a close never blocks on a buffer that still holds the
// last release's token, and it is not used up by one receive: every later
// receive, by a parked node or a late arrival, returns at once. The channels
// past the run's nodes close too, or their executors would stay parked on
// channels that no run sends to again.
func (b *barrier) abort() {
	if b.aborted.Swap(true) {
		return
	}
	for _, tok := range b.tokens[:cap(b.tokens)] {
		close(tok)
	}
}
