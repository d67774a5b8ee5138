package comm

import (
	"ncc/internal/hashing"
	"ncc/internal/ncc"
)

// spreadRouter runs the Multicast Algorithm's reverse routing (Appendix B.4)
// for one butterfly column, typed by the collective's payload: packets enter
// at tree roots on the bottommost level and retrace the recorded tree edges
// up to the level-0 leaves, one packet per edge per round, minimum
// (rank, group) first, with per-edge tokens flowing downward for termination.
type spreadRouter[T any] struct {
	s    *Session
	seq  uint32
	w    Wire[T]
	t    *Trees
	rank *hashing.Family
	col  int

	// queues[level][side] holds packets waiting to traverse the down-spread
	// edge of (level, col) toward level-1 side `side` (0 straight, 1 cross).
	queues [][2][]spreadItem[T]
	// tokIn[level][side] marks the token received into (level, col) along its
	// up-edge of that side (no more packets will arrive there).
	tokIn [][2]bool
	// tokSent[level][side] marks the token emitted on the down-spread edge.
	tokSent [][2]bool

	initsDone bool
	leafGot   []GroupVal[T] // packets that reached this column's level-0 leaf

	nextItems []stagedSpread[T]
	nextToks  []stagedTok
}

type spreadItem[T any] struct {
	group uint64
	rank  uint32
	val   T
}

func (r *spreadRouter[T]) rankOf(g uint64) uint32 { return uint32(r.rank.Hash(g)) }

type stagedSpread[T any] struct {
	level int
	it    spreadItem[T]
}

// spread readies the pooled spreading router for a new invocation.
func (st *commState[T]) spread(s *Session, seq uint32, w Wire[T], t *Trees, rank *hashing.Family) *spreadRouter[T] {
	r := &st.sr
	levels := s.BF.Levels()
	r.s, r.seq, r.w, r.t, r.rank = s, seq, w, t, rank
	r.col = s.BF.Column(s.Ctx.ID())
	if len(r.queues) != levels {
		r.queues = make([][2][]spreadItem[T], levels)
		r.tokIn = make([][2]bool, levels)
		r.tokSent = make([][2]bool, levels)
	} else {
		for i := range r.queues {
			r.queues[i][0] = r.queues[i][0][:0]
			r.queues[i][1] = r.queues[i][1][:0]
			r.tokIn[i] = [2]bool{}
			r.tokSent[i] = [2]bool{}
		}
	}
	r.initsDone = false
	r.leafGot = r.leafGot[:0]
	r.nextItems = r.nextItems[:0]
	r.nextToks = r.nextToks[:0]
	return r
}

// arrive processes a packet entering (level, col): leaves collect it; inner
// nodes fan it out onto the recorded tree edges of its group.
func (r *spreadRouter[T]) arrive(level int, it spreadItem[T]) {
	if level == 0 {
		r.leafGot = append(r.leafGot, GroupVal[T]{Group: it.group, Val: it.val})
		return
	}
	mask := r.t.children[level][it.group]
	for side := 0; side <= 1; side++ {
		if mask&(1<<side) != 0 {
			r.queues[level][side] = append(r.queues[level][side], it)
		}
	}
}

func (r *spreadRouter[T]) absorb() (done bool) {
	s := r.s
	staged := r.nextItems
	r.nextItems = r.nextItems[:0]
	for _, sp := range staged {
		r.arrive(sp.level, sp.it)
	}
	toks := r.nextToks
	r.nextToks = r.nextToks[:0]
	for _, st := range toks {
		r.tokIn[st.level][st.side] = true
	}
	for _, m := range s.qInit {
		if !s.current("multicast init", m.seq, r.seq) {
			continue
		}
		if s.patience > 0 && int(m.val.n) != r.w.Words() {
			continue // corrupted frame; drop rather than fault the node
		}
		r.arrive(s.BF.D, spreadItem[T]{group: m.group, rank: r.rankOf(m.group), val: r.w.Decode(s.words(m.val))})
	}
	s.qInit = s.qInit[:0]
	for _, m := range s.qSpread {
		if !s.current("spread packet", m.seq, r.seq) {
			continue
		}
		if s.patience > 0 && (int(m.val.n) != r.w.Words() || int(m.level) < 0 || int(m.level) >= len(r.queues)) {
			continue
		}
		r.arrive(int(m.level), spreadItem[T]{group: m.group, rank: r.rankOf(m.group), val: r.w.Decode(s.words(m.val))})
	}
	s.qSpread = s.qSpread[:0]
	for _, m := range s.qSpTok {
		if !s.current("spread token", m.seq, r.seq) {
			continue
		}
		if s.patience > 0 && (int(m.level) < 0 || int(m.level) >= len(r.tokIn)) {
			continue
		}
		r.tokIn[m.level][m.side] = true
	}
	s.qSpTok = s.qSpTok[:0]
	return r.done()
}

// sendSpread encodes a packet moving down a tree edge into `level`.
func sendSpread[T any](s *Session, to ncc.NodeID, seq uint32, level int, w Wire[T], group uint64, val T) {
	n := w.Words()
	enc := s.encode(2 + n)
	enc[0] = tagSpread<<56 | uint64(seq&seqMask)<<32 | uint64(uint8(level))<<24
	enc[1] = group
	w.Encode(val, enc[2:])
	s.Ctx.SendWords(to, enc)
}

// step performs one butterfly routing round: per up-edge, forward the
// minimum (rank, group) queued packet, then emit that edge's token once its
// own queue is empty and the level's up-edges are done.
func (r *spreadRouter[T]) step() (moved bool) {
	bf := r.s.BF
	for level := bf.D; level >= 1; level-- {
		for side := 0; side <= 1; side++ {
			q := r.queues[level][side]
			if len(q) > 0 {
				best := 0
				for i := 1; i < len(q); i++ {
					if q[i].rank < q[best].rank || (q[i].rank == q[best].rank && q[i].group < q[best].group) {
						best = i
					}
				}
				it := q[best]
				moved = true
				q[best] = q[len(q)-1]
				r.queues[level][side] = q[:len(q)-1]
				toCol := bf.UpNeighbor(level-1, r.col, side)
				if toCol == r.col {
					r.nextItems = append(r.nextItems, stagedSpread[T]{level: level - 1, it: it})
				} else {
					sendSpread(r.s, bf.Host(toCol), r.seq, level-1, r.w, it.group, it.val)
				}
			}
			if !r.tokSent[level][side] && len(r.queues[level][side]) == 0 && r.upDone(level) {
				r.tokSent[level][side] = true
				moved = true
				toCol := bf.UpNeighbor(level-1, r.col, side)
				if toCol == r.col {
					r.nextToks = append(r.nextToks, stagedTok{level: level - 1, side: 0})
				} else {
					h := tagSpreadTok<<56 | uint64(r.seq&seqMask)<<32 | uint64(uint8(level-1))<<24 | 1
					r.s.Ctx.SendWord(bf.Host(toCol), ncc.Word(h))
				}
			}
		}
	}
	return moved
}

func (r *spreadRouter[T]) upDone(level int) bool {
	if level == r.s.BF.D {
		return r.initsDone
	}
	return r.tokIn[level][0] && r.tokIn[level][1]
}

func (r *spreadRouter[T]) done() bool {
	for level := 1; level <= r.s.BF.D; level++ {
		if !r.tokSent[level][0] || !r.tokSent[level][1] {
			return false
		}
	}
	return r.tokIn[0][0] && r.tokIn[0][1]
}

// sendInit delivers a source's packet to its tree root (or stages it locally
// when this node hosts the root column).
func sendInit[T any](s *Session, r *spreadRouter[T], seq uint32, w Wire[T], t *Trees, group uint64, val T) {
	rootCol := int(t.Root(group))
	if r != nil && rootCol == r.col {
		r.nextItems = append(r.nextItems, stagedSpread[T]{level: s.BF.D, it: spreadItem[T]{group: group, rank: r.rankOf(group), val: val}})
		return
	}
	n := w.Words()
	enc := s.encode(2 + n)
	enc[0] = tagInit<<56 | uint64(seq&seqMask)<<32
	enc[1] = group
	w.Encode(val, enc[2:])
	s.Ctx.SendWords(s.BF.Host(rootCol), enc)
}

// SourcePacket is one multicast payload: the source's group and its message.
type SourcePacket[T any] struct {
	Group uint64
	Val   T
}

// Multicast solves the Multicast Problem (Theorem 2.5) over previously set-up
// trees: every source's packet is delivered to every member of its group.
// Each node is the source of at most one group per call (isSource with its
// group id and payload); lhat is the globally known upper bound on the number
// of groups any node is a member of. Returns the packets delivered to this
// node as (group, value) pairs. Cost: O(C + lhat/log n + log n) rounds
// w.h.p., where C is the tree congestion. The returned slice is reused by
// the next collective invocation with the same payload type; copy it if it
// must survive that long.
func Multicast[T any](s *Session, t *Trees, isSource bool, group uint64, val T, w Wire[T], lhat int) []GroupVal[T] {
	var packets []SourcePacket[T]
	if isSource {
		packets = []SourcePacket[T]{{Group: group, Val: val}}
	}
	return MulticastMulti(s, t, packets, w, lhat)
}

// MulticastMulti is the extension the paper notes after Theorem 2.5: a node
// may be the source of several multicast groups in the same call. The source
// packets are injected into the tree roots in capacity-bounded batches over a
// globally agreed window before the spread starts; everything else is
// identical. Cost gains an additive O(maxPackets/log n) term.
func MulticastMulti[T any](s *Session, t *Trees, packets []SourcePacket[T], w Wire[T], lhat int) []GroupVal[T] {
	s.assertDrained("Multicast")
	call := s.nextCall()
	rankF := s.rankOnly(call)
	seq := seq24(call)

	var r *spreadRouter[T]
	if s.BF.IsEmulator(s.Ctx.ID()) {
		r = stateFor[T](s).spread(s, seq, w, t, rankF)
	}

	spreadPhase(s, r, seq, w, t, packets)

	// Leaf delivery within a randomized window.
	window := s.window(lhat)
	return deliverLeaves(s, r, w, window)
}

// spreadPhase injects this node's source packets into the tree roots over a
// globally agreed window (the MaxAll doubles as the start barrier), then runs
// the spread routing to quiescence and synchronizes.
func spreadPhase[T any](s *Session, r *spreadRouter[T], seq uint32, w Wire[T], t *Trees, packets []SourcePacket[T]) {
	maxP, _ := s.MaxAll(uint64(len(packets)), true)
	window := s.window(int(maxP))
	batch := s.batchSize()
	k := 0
	for i := 0; i < window; i++ {
		for j := 0; j < batch && k < len(packets); j++ {
			sendInit(s, r, seq, w, t, packets[k].Group, packets[k].Val)
			k++
		}
		s.Advance()
		if r != nil {
			r.absorb()
		}
	}
	if r != nil {
		r.initsDone = true
		route(s, r)
	}
	s.Synchronize()
}

// deliverLeaves plans each leaf packet's fan-out to the group members
// recorded at this column's leaf, each at a uniformly random round of the
// window, delivers the plan, and collects the packets addressed to this node.
func deliverLeaves[T any](s *Session, r *spreadRouter[T], w Wire[T], window int) []GroupVal[T] {
	st := stateFor[T](s)
	plan := st.planWindow(window)
	if r != nil {
		for _, gv := range r.leafGot {
			for _, origin := range r.t.leafOrigins[gv.Group] {
				t := randRound(s.Ctx.Rand(), window)
				plan[t] = append(plan[t], pkt[T]{group: gv.Group, target: origin, val: gv.Val})
			}
		}
		r.leafGot = r.leafGot[:0]
	}
	mine := deliver(s, st, tagLeaf, w)
	for _, lm := range s.qLeaf {
		if s.patience > 0 && int(lm.val.n) != w.Words() {
			continue // corrupted frame; drop rather than fault the node
		}
		mine = append(mine, GroupVal[T]{Group: lm.group, Val: w.Decode(s.words(lm.val))})
	}
	s.qLeaf = s.qLeaf[:0]
	st.out = mine
	return mine
}
