// Package comm implements the communication primitives of the
// Node-Capacitated Clique paper (Section 2.2 and Appendix B) as typed,
// generics-based collectives: butterfly emulation, Aggregate-and-Broadcast,
// Aggregation with random-rank routing and in-network combining, Multicast
// Tree Setup, Multicast, and Multi-Aggregation.
//
// # Codecs and combiners
//
// Every collective is generic over its payload type T. A Wire[T] codec fixes
// T's word layout (Words, Encode, Decode — exact inverses, pinned by the
// codec fuzz test); a Combiner[T] pairs a codec with a commutative-
// associative merge. Built-in codecs cover uint64, Pair, XorCount, Sketch,
// Sketch3 and the zero-width Flag; algorithms with bespoke payloads
// implement Wire[T] themselves (see core's three-word orientation
// aggregate). Payloads travel as flat words through the engine's inline
// SendWord/SendWords2/SendWords paths and are decoded straight out of the
// receive arenas — no interface boxing anywhere on the message plane, which
// is what keeps steady-state primitive traffic at ~0 allocations per
// message (pinned by TestCollectiveSteadyStateAllocs).
//
// # Routing collectives
//
// Aggregate, SetupTrees, Multicast and MultiAggregate are built from the
// same three steps on the emulated butterfly (Appendix B.2–B.4), each
// written once in router.go:
//
//   - the injector sends packets to uniformly random level-0 columns,
//     ceil(log n) per round;
//   - route drives a column's router level by level until quiescent: every
//     edge carries its pending packet with the minimum (rank, group) each
//     round, and tokens certify that an edge will carry nothing more;
//   - deliver sends the final values to their targets, each at a uniformly
//     random round of a window sized by the load bound. The plan is one
//     flat slice of (round, packet) pairs, appended in draw order; a
//     counting pass over the window's rounds orders it by round before
//     sending, so a round's packets go out in the order they were drawn.
//
// Aggregate runs all three over the combining router, SetupTrees the first
// two. Multicast places its packets at the tree roots, then routes over the
// spreading router and delivers. MultiAggregate spreads to the leaves, then
// injects, routes and delivers over the combining router. The two routers
// keep their own arrival rule (merge into the group's packet, or fan out
// along the recorded tree edges) and token rule: the combining router emits
// a level's two tokens only once the whole level is empty, while the
// spreading router emits each edge's token as soon as that edge's queue is
// empty.
//
// SetupTrees records each arrival at a column into two flat slices of the
// Trees: (level, group, side) tree edges and (group, origin) leaf members.
// It seals them when routing ends: edges sorted by level and group with one
// OR-merged side mask each, found by binary search, and leaf members stably
// sorted by group, so each group keeps its members in arrival order. The
// per-column router state (level queues, staging queues, the delivery plan)
// is pooled per payload type for the session's lifetime and grows only to
// what it holds.
//
// # SPMD call order
//
// All primitives are SPMD collectives: every node of the clique must call
// them in the same order (possibly at different rounds; the token-based
// Synchronize realigns the network, exactly as the paper's synchronization
// variant of Aggregate-and-Broadcast does). The shared invocation counter
// that seeds each collective's hash functions — and the wire protocol's
// invocation tags — depend on this discipline; calling collectives in
// divergent orders across nodes is a protocol violation the session panics
// on when it can detect it.
package comm

import (
	"fmt"
	"math/rand/v2"
	"reflect"

	"ncc/internal/butterfly"
	"ncc/internal/hashing"
	"ncc/internal/ncc"
)

// SeedWords is the number of shared random words broadcast by node 0 when a
// session starts: Theta(log^2 n) bits as in Section 2.2.
const SeedWords = 8

// Session holds a node's view of the butterfly emulation and the shared
// randomness, and dispatches incoming wire messages to the primitive that
// owns them. Each node creates exactly one Session per program via
// NewSession.
type Session struct {
	Ctx *ncc.Context
	BF  *butterfly.Butterfly

	seed  []uint64
	calls uint64

	// Raw wire queues, filled by Advance. Payload words are stashed in the
	// vals arena and decoded by the owning collective (which knows the
	// codec); the arena is recycled whenever all queues drain.
	qGather  []gatherRaw
	qRelease []releaseRaw
	qWords   []wordRaw
	qRoute   []routeRaw
	qRtTok   []tokRaw
	qInit    []initRaw
	qSpread  []spreadRaw
	qSpTok   []tokRaw
	qLeaf    []groupRaw
	qResult  []groupRaw
	vals     []uint64

	// Algorithm-level direct messages and their word arena, drained (and
	// recycled) by DrainDirect.
	direct []directRaw
	dwords []uint64

	enc   []uint64  // wire-encode scratch, reused by every send
	view2 [2]uint64 // inline-payload view scratch for dispatch

	// Pooled per-invocation hash families (reseeded in place each collective
	// call, never reallocated).
	famDest, famRank, famRank2 *hashing.Family

	// states pools the per-payload-type router and queue state across
	// collective invocations, keyed by the payload type, so repeated
	// collectives of the same T reuse their queues and buffers.
	states map[reflect.Type]any

	// patience is the barren-round budget of every otherwise-unbounded wait,
	// and 0 on a reliable network. The paper's collectives assume no message
	// is ever lost; under fault injection a lost token or packet would park a
	// node forever (the run would only die at MaxRounds, taking every node's
	// output with it). With patience set, a wait that sees nothing arrive for
	// this many consecutive rounds gives up and continues with what it has —
	// the collective's result degrades instead of the whole run. Reliable
	// runs keep the wait-forever semantics bit-for-bit unchanged. The waits
	// sleep in between, so the budget becomes a round deadline (giveUp).
	patience int
}

// NewSession builds the butterfly emulation and establishes the shared
// randomness: node 0 draws SeedWords random words and broadcasts them through
// the butterfly (O(log n) rounds). Every node must call NewSession first.
func NewSession(ctx *ncc.Context) *Session {
	s := &Session{
		Ctx:    ctx,
		BF:     butterfly.New(ctx.N()),
		enc:    make([]uint64, maxWireWords),
		states: make(map[reflect.Type]any),
	}
	if ctx.Faulty() {
		s.patience = 32 + 16*ncc.CeilLog2(ctx.N())
	}
	var words []uint64
	if ctx.ID() == 0 {
		words = make([]uint64, SeedWords)
		for i := range words {
			words[i] = ctx.Rand().Uint64()
		}
	}
	s.seed = s.BroadcastWords(0, words, SeedWords)
	return s
}

// Advance runs one communication round and dispatches everything received.
func (s *Session) Advance() { s.wait(0) }

// wait is Advance that sleeps through empty rounds: it submits the outbox,
// then returns at the first round that delivers input, or once Round()
// reaches deadline (ncc.Context.AwaitInput). A loop may call it in place of
// Advance when its body does nothing in a round with an empty inbox and
// nothing queued; a loop that consumes a queue must Advance while that queue
// holds input received before the loop started, or it would sleep on input
// it already has.
func (s *Session) wait(deadline int) {
	if len(s.qGather)+len(s.qRelease)+len(s.qRoute)+len(s.qInit)+
		len(s.qSpread)+len(s.qLeaf)+len(s.qResult) == 0 {
		s.vals = s.vals[:0]
	}
	in := s.Ctx.AwaitInput(deadline)
	for i := range in {
		rc := &in[i]
		ws := receivedWords(s.Ctx, rc, &s.view2)
		w0 := ws[0]
		switch hdrTag(w0) {
		case tagGather:
			s.qGather = append(s.qGather, gatherRaw{from: rc.From, has: w0&1 != 0, val: s.stash(ws[1:])})
		case tagRelease:
			s.qRelease = append(s.qRelease, releaseRaw{
				exitRound: int(w0 >> 16 & (1<<40 - 1)),
				has:       w0&1 != 0,
				val:       s.stash(ws[1:]),
			})
		case tagWord:
			s.qWords = append(s.qWords, wordRaw{idx: int32(uint32(w0)), w: ws[1]})
		case tagRoute:
			s.qRoute = append(s.qRoute, routeRaw{
				seq:     uint32(w0 >> 32 & seqMask),
				level:   int8(w0 >> 24),
				group:   ws[1],
				destCol: int32(ws[2] >> 32),
				rank:    uint32(ws[2]),
				target:  int32(uint32(ws[3] >> 32)),
				origin:  int32(uint32(ws[3])),
				val:     s.stash(ws[4:]),
			})
		case tagRouteTok:
			s.qRtTok = append(s.qRtTok, tokRaw{seq: uint32(w0 >> 32 & seqMask), level: int8(w0 >> 24), side: int8(w0 & 1)})
		case tagInit:
			s.qInit = append(s.qInit, initRaw{seq: uint32(w0 >> 32 & seqMask), group: ws[1], val: s.stash(ws[2:])})
		case tagSpread:
			s.qSpread = append(s.qSpread, spreadRaw{
				seq:   uint32(w0 >> 32 & seqMask),
				level: int8(w0 >> 24),
				group: ws[1],
				val:   s.stash(ws[2:]),
			})
		case tagSpreadTok:
			s.qSpTok = append(s.qSpTok, tokRaw{seq: uint32(w0 >> 32 & seqMask), level: int8(w0 >> 24), side: int8(w0 & 1)})
		case tagLeaf:
			s.qLeaf = append(s.qLeaf, groupRaw{group: ws[1], val: s.stash(ws[2:])})
		case tagResult:
			s.qResult = append(s.qResult, groupRaw{group: ws[1], val: s.stash(ws[2:])})
		default:
			off := int32(len(s.dwords))
			s.dwords = append(s.dwords, ws...)
			s.direct = append(s.direct, directRaw{from: rc.From, val: rawVal{off: off, n: int32(len(ws))}})
		}
	}
}

// receivedWords returns the flat word view of rc, a message from ctx's inbox,
// regardless of its inline representation; scratch backs the one- and
// two-word cases.
func receivedWords(ctx *ncc.Context, rc *ncc.Received, scratch *[2]uint64) []uint64 {
	if w, ok := rc.AsWord(); ok {
		scratch[0] = uint64(w)
		return scratch[:1]
	}
	if w2, ok := rc.AsWords2(); ok {
		scratch[0], scratch[1] = w2[0], w2[1]
		return scratch[:2]
	}
	ws, _ := ctx.Words(rc)
	return ws
}

// stash copies payload words into the value arena and returns their handle.
func (s *Session) stash(ws []uint64) rawVal {
	if len(ws) == 0 {
		return rawVal{}
	}
	off := int32(len(s.vals))
	s.vals = append(s.vals, ws...)
	return rawVal{off: off, n: int32(len(ws))}
}

// words resolves a stashed payload back to its word view.
func (s *Session) words(v rawVal) []uint64 {
	return s.vals[v.off : v.off+v.n]
}

// encode prepares the session's scratch buffer for an n-word wire message.
func (s *Session) encode(n int) []uint64 {
	if n > cap(s.enc) {
		s.enc = make([]uint64, n)
	}
	return s.enc[:n]
}

// DrainDirect hands every pending algorithm-level direct message (anything
// that is not primitive wire traffic) to fn, in arrival order, then clears
// the queue and recycles its arena. The ws slice is only valid during the
// call; fn must not call Advance or any collective.
func (s *Session) DrainDirect(fn func(from ncc.NodeID, ws []uint64)) {
	for _, d := range s.direct {
		fn(d.from, s.dwords[d.val.off:d.val.off+d.val.n])
	}
	s.direct = s.direct[:0]
	s.dwords = s.dwords[:0]
}

// nextCall advances the collective invocation counter. Because primitives are
// called in identical order at every node, the counter is common knowledge
// and seeds per-invocation hash functions without extra communication.
func (s *Session) nextCall() uint64 {
	s.calls++
	return s.calls
}

// pooledFamily derives into *slot the Theta(log n)-wise independent function
// of collective invocation `call` and the given salt, identical at every
// node: it reseeds the family held there in place, or allocates one when the
// slot is empty.
func (s *Session) pooledFamily(slot **hashing.Family, call, salt uint64) *hashing.Family {
	k := max(4, ncc.CeilLog2(s.Ctx.N())+2)
	st := hashing.StreamFrom(s.seed, hashing.Mix(call)^salt)
	if *slot == nil || (*slot).K() != k {
		*slot = hashing.NewFamily(k, &st)
	} else {
		(*slot).Reseed(&st)
	}
	return *slot
}

// pktHash is the per-invocation hash pair of the routing primitives:
// destination column at the bottommost butterfly level and contention rank.
// It is a value over pooled families, so deriving one allocates nothing.
type pktHash struct {
	dest, rank *hashing.Family
	cols       uint64
}

func (h pktHash) destCol(g uint64) int32 { return int32(h.dest.Range(g, h.cols)) }

func (h pktHash) rankOf(g uint64) uint32 { return uint32(h.rank.Hash(g)) }

// destRank derives the routing hash pair for an invocation from the pooled
// dest/rank slots.
func (s *Session) destRank(call uint64) pktHash {
	return pktHash{
		dest: s.pooledFamily(&s.famDest, call, 0x64657374), // "dest"
		rank: s.pooledFamily(&s.famRank, call, 0x72616e6b), // "rank"
		cols: uint64(s.BF.Cols),
	}
}

// rankOnly derives just the contention-rank hash for an invocation, in its
// own pooled slot so it can stay live across a nested destRank derivation
// (Multi-Aggregation seeds both at entry).
func (s *Session) rankOnly(call uint64) *hashing.Family {
	return s.pooledFamily(&s.famRank2, call, 0x72616e6b)
}

// batchSize is the number of packets injected per round during preprocessing
// phases (ceil(log n), as in Appendix B.2), clamped to the run's smallest
// per-node capacity so heterogeneous-capacity runs never inject beyond what
// the weakest node may send. On uniform runs the clamp is a no-op (capacity
// is capfactor * ceil(log n) with capfactor >= 1).
func (s *Session) batchSize() int {
	return max(1, min(ncc.CeilLog2(s.Ctx.N()), s.Ctx.MinCap()))
}

// giveUp returns the round at which a wait that has seen nothing since round
// base gives up: base+budget under faults, and never on a reliable network.
func (s *Session) giveUp(base, budget int) int {
	if s.patience == 0 {
		return ncc.NoDeadline
	}
	return base + budget
}

// window returns the length of the randomized delivery window for a load
// bound of lhat messages per receiver. Under faults, lhat may come from a
// degraded aggregate (a stale or partial value), so the window is clamped to
// the patience budget — any window beyond it could not be waited out anyway.
func (s *Session) window(lhat int) int {
	w := max(1, (lhat+s.batchSize()-1)/s.batchSize())
	if s.patience > 0 {
		w = min(w, s.patience)
	}
	return w
}

// assertDrained panics if a primitive left routing state behind; this guards
// against protocol bugs in tests. Under faults, stale messages are the
// expected debris of a collective that gave up early — they are discarded so
// the next collective starts clean.
func (s *Session) assertDrained(what string) {
	if len(s.qRoute)+len(s.qRtTok)+len(s.qSpread)+len(s.qSpTok)+len(s.qInit) != 0 {
		if s.patience > 0 {
			s.qRoute = s.qRoute[:0]
			s.qRtTok = s.qRtTok[:0]
			s.qSpread = s.qSpread[:0]
			s.qSpTok = s.qSpTok[:0]
			s.qInit = s.qInit[:0]
			return
		}
		panic(fmt.Sprintf("comm: node %d: stale primitive messages at start of %s (route=%d rtok=%d spread=%d stok=%d init=%d)",
			s.Ctx.ID(), what, len(s.qRoute), len(s.qRtTok), len(s.qSpread), len(s.qSpTok), len(s.qInit)))
	}
}

// current reports whether a routing frame of invocation seq belongs to the
// running invocation want. A frame of another invocation is a straggler from
// a collective that gave up early, skipped under patience; on a reliable
// network it breaks the SPMD call order, and the session panics naming the
// frame's kind.
func (s *Session) current(kind string, seq, want uint32) bool {
	if seq != want && s.patience == 0 {
		panic(fmt.Sprintf("comm: %s from invocation %d received during %d", kind, seq, want))
	}
	return seq == want
}

// randRound picks a uniform round offset in [0, w).
func randRound(rng *rand.Rand, w int) int {
	if w <= 1 {
		return 0
	}
	return rng.IntN(w)
}

// SharedFamily derives a fresh Theta(log n)-wise independent hash family from
// the session's shared randomness, identical at every node, into the
// caller's slot: the family held there is reseeded in place (allocated while
// the slot is nil), so a caller that drops the family before its next call
// with the same slot allocates nothing, and one that holds two families at
// once uses two slots. It advances the collective invocation counter, so all
// nodes must call it in the same order (the usual SPMD discipline).
func (s *Session) SharedFamily(slot **hashing.Family, salt uint64) *hashing.Family {
	return s.pooledFamily(slot, s.nextCall(), salt)
}

// SharedStream derives a deterministic word stream from the shared
// randomness, identical at every node; used to seed batches of hash
// functions (e.g. the s trial functions of the Identification Algorithm).
// Advances the collective invocation counter.
func (s *Session) SharedStream(salt uint64) *hashing.SeedStream {
	call := s.nextCall()
	return hashing.NewSeedStream(s.seed, hashing.Mix(call)^salt)
}

// commState is the pooled per-payload-type scratch of the routing
// collectives: one combining router and one spreading router per T, reused
// (slices truncated) across invocations so steady-state collective traffic
// allocates ~nothing per message.
type commState[T any] struct {
	cr combineRouter[T]
	sr spreadRouter[T]

	// Delivery scratch: the flat plan deliver sends from (each packet with
	// its round of a window of the given length), the per-round counts and
	// round order byRound builds over it, and the result buffer the
	// collectives return views of (reused by the next invocation with the
	// same payload type, exactly like the engine's EndRound inbox).
	plan   []planned[T]
	window int
	first  []int32
	order  []int32
	out    []GroupVal[T]
}

// stateFor fetches (or creates) the session's pooled state for payload type
// T. The reflect key costs one map lookup per collective invocation — noise
// against the invocation's O(log n) rounds of traffic.
func stateFor[T any](s *Session) *commState[T] {
	key := reflect.TypeFor[T]()
	if st, ok := s.states[key]; ok {
		return st.(*commState[T])
	}
	st := &commState[T]{}
	s.states[key] = st
	return st
}
