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
// round. The coordinator sends one token to every live node, and a send to a
// parked receiver hands it over directly, so a round barrier costs O(N)
// uncontended atomics plus one park/unpark per node — no shared lock for
// woken nodes to pile onto, no per-round allocation and no serialized submit
// funnel.
//
// Abort closes every token channel once. A close never blocks and wakes
// parked nodes and late arrivals alike; they observe the abort flag and
// unwind with errAborted. The abort flag is stored before the close, so a
// receive that returns because of the close always sees it.
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

// barrierShard keeps each shard's countdown on its own cache line.
type barrierShard struct {
	count atomic.Int32
	_     [60]byte // keep neighbouring shard countdowns off this cache line
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
// live node took the last token it was sent before its program returned.
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

// reset arms the barrier for the next round: shard i expects live[i]
// arrivals. Only the coordinator calls this, strictly between barrier
// completion (wake received) and release, when no node is running.
func (b *barrier) reset(live []int32) {
	rem := int32(0)
	for i := range b.shards {
		b.shards[i].count.Store(live[i])
		if live[i] > 0 {
			rem++
		}
	}
	b.remaining.Store(rem)
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

// release hands one token to every node whose program has not returned. At
// barrier completion each such node is parked on its token or about to park,
// and it took the previous token before arriving, so no send blocks.
func (b *barrier) release(finished []bool) {
	if b.times != nil {
		b.releasedAt = time.Now().UnixNano()
	}
	for id, tok := range b.tokens {
		if !finished[id] {
			tok <- struct{}{}
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
