package comm

import (
	"fmt"

	"ncc/internal/ncc"
)

// combineRouter executes the combining phase of the Aggregation Algorithm
// (Appendix B.2) for the butterfly column emulated by one clique node, typed
// by the collective's payload. Packets travel from level 0 to level D along
// bit-fixing paths toward their group's destination column; packets of the
// same aggregation group merge whenever they meet; edge contention is
// resolved by minimum (rank, group); per-edge tokens certify quiescence
// level by level.
//
// Straight edges connect butterfly nodes of the same column and therefore
// cost no clique message, but they still carry at most one packet per round,
// keeping the congestion analysis of Theorem B.2 intact.
type combineRouter[T any] struct {
	s     *Session
	seq   uint32
	w     Wire[T]
	merge func(a, b T) T
	rec   *Trees // non-nil: record tree edges and leaf origins (Theorem 2.4)
	col   int

	// pend[level] holds the level's pending packets, at most one per group,
	// in no particular order; pend[D] holds the completed groups.
	pend    [][]pkt[T]
	tokIn   [][2]bool // tokens received into level i via side 0/1
	tokSent []bool    // token emitted out of level i

	nextPkts []stagedPkt[T]
	nextToks []stagedTok
}

// pkt is a routable aggregation packet with its payload held decoded — the
// codec runs only at the clique-message boundary, never on local hops.
type pkt[T any] struct {
	group   uint64
	destCol int32
	rank    uint32
	target  int32
	origin  int32
	val     T
}

type stagedPkt[T any] struct {
	level int
	p     pkt[T]
}

type stagedTok struct {
	level int
	side  int
}

// combine readies the pooled combining router for a new invocation: level
// queues and staging queues truncated, token state zeroed — no steady-state
// allocation.
func (st *commState[T]) combine(s *Session, seq uint32, c Combiner[T], rec *Trees) *combineRouter[T] {
	r := &st.cr
	levels := s.BF.Levels()
	r.s, r.seq, r.w, r.merge, r.rec = s, seq, c.Wire, c.Combine, rec
	r.col = s.BF.Column(s.Ctx.ID())
	if len(r.pend) != levels {
		r.pend = make([][]pkt[T], levels)
		r.tokIn = make([][2]bool, levels)
		r.tokSent = make([]bool, levels)
	} else {
		for i := range r.pend {
			r.pend[i] = r.pend[i][:0]
			r.tokIn[i] = [2]bool{}
			r.tokSent[i] = false
		}
	}
	r.nextPkts = r.nextPkts[:0]
	r.nextToks = r.nextToks[:0]
	return r
}

// stageLocal queues a locally injected packet for arrival at level 0 next
// round (the injection hop costs a round whether or not it crosses columns).
func (r *combineRouter[T]) stageLocal(p pkt[T]) {
	r.nextPkts = append(r.nextPkts, stagedPkt[T]{level: 0, p: p})
}

// absorb applies staged internal moves and drains the session's routing
// queues — decoding payload words with the invocation's codec — into the
// per-level queues.
func (r *combineRouter[T]) absorb() {
	s := r.s
	staged := r.nextPkts
	r.nextPkts = r.nextPkts[:0]
	for _, sp := range staged {
		r.arrive(sp.level, sp.p, 0)
	}
	toks := r.nextToks
	r.nextToks = r.nextToks[:0]
	for _, st := range toks {
		r.tokIn[st.level][st.side] = true
	}
	for _, m := range s.qRoute {
		if m.seq != r.seq {
			if s.patience > 0 {
				continue // straggler from a collective that gave up early
			}
			panic(fmt.Sprintf("comm: route packet from invocation %d received during %d", m.seq, r.seq))
		}
		if s.patience > 0 && (int(m.val.n) != r.w.Words() || int(m.level) < 0 || int(m.level) >= len(r.pend)) {
			continue // corrupted frame; drop rather than fault the node
		}
		r.arrive(int(m.level), pkt[T]{
			group:   m.group,
			destCol: m.destCol,
			rank:    m.rank,
			target:  m.target,
			origin:  m.origin,
			val:     r.w.Decode(s.words(m.val)),
		}, 1)
	}
	s.qRoute = s.qRoute[:0]
	for _, m := range s.qRtTok {
		if m.seq != r.seq {
			if s.patience > 0 {
				continue
			}
			panic(fmt.Sprintf("comm: route token from invocation %d received during %d", m.seq, r.seq))
		}
		if s.patience > 0 && (int(m.level) < 0 || int(m.level) >= len(r.tokIn)) {
			continue
		}
		r.tokIn[m.level][m.side] = true
	}
	s.qRtTok = s.qRtTok[:0]
}

func (r *combineRouter[T]) arrive(level int, p pkt[T], side int) {
	if r.rec != nil {
		r.rec.record(level, p.group, p.origin, side)
	}
	q := r.pend[level]
	for i := range q {
		if q[i].group == p.group {
			q[i].val = r.merge(q[i].val, p.val)
			return
		}
	}
	if cap(q) == 0 {
		q = make([]pkt[T], 0, 8) // levels that never see a packet stay unallocated
	}
	r.pend[level] = append(q, p)
}

// step performs one butterfly routing round: per down-edge, forward the
// minimum-rank pending packet, then emit per-edge tokens where quiescent.
// Empty levels are skipped, so a step costs O(pending packets). It reports
// whether it moved anything (sent or staged a packet or token); a step that
// moved nothing changed no state, so the next one does nothing either until
// input arrives.
func (r *combineRouter[T]) step() (moved bool) {
	bf := r.s.BF
	for level := 0; level < bf.D; level++ {
		for bit := 0; bit <= 1 && len(r.pend[level]) > 0; bit++ {
			i, ok := r.selectMin(level, bit)
			if !ok {
				continue
			}
			q := r.pend[level]
			best := q[i]
			moved = true
			q[i] = q[len(q)-1]
			r.pend[level] = q[:len(q)-1]
			toCol := bf.DownNeighbor(level, r.col, bit)
			if toCol == r.col {
				r.nextPkts = append(r.nextPkts, stagedPkt[T]{level: level + 1, p: best})
			} else {
				sendRoute(r.s, bf.Host(toCol), r.seq, level+1, r.w, best)
			}
		}
		if !r.tokSent[level] && len(r.pend[level]) == 0 && r.upDone(level) {
			r.tokSent[level] = true
			moved = true
			for bit := 0; bit <= 1; bit++ {
				toCol := bf.DownNeighbor(level, r.col, bit)
				if toCol == r.col {
					r.nextToks = append(r.nextToks, stagedTok{level: level + 1, side: 0})
				} else {
					h := tagRouteTok<<56 | uint64(r.seq&seqMask)<<32 | uint64(uint8(level+1))<<24 | 1
					r.s.Ctx.SendWord(bf.Host(toCol), ncc.Word(h))
				}
			}
		}
	}
	return moved
}

// selectMin returns the index in pend[level] of the packet with the smallest
// (rank, group) among those whose destination requires the down-edge labelled
// `bit`, and false if no packet needs that edge. Groups are unique within a
// level, so the choice does not depend on the queue's order.
func (r *combineRouter[T]) selectMin(level, bit int) (int, bool) {
	q := r.pend[level]
	best := -1
	for i := range q {
		p := &q[i]
		if int(p.destCol>>level)&1 != bit {
			continue
		}
		if best < 0 || p.rank < q[best].rank || (p.rank == q[best].rank && p.group < q[best].group) {
			best = i
		}
	}
	return best, best >= 0
}

func (r *combineRouter[T]) upDone(level int) bool {
	if level == 0 {
		// Injection finished before the combining phase started (the callers
		// synchronize in between), so level 0 receives nothing new.
		return true
	}
	return r.tokIn[level][0] && r.tokIn[level][1]
}

// done reports whether this column is fully quiescent: every level has
// emitted its tokens and the bottommost level has received both of its own.
func (r *combineRouter[T]) done() bool {
	for level := 0; level < r.s.BF.D; level++ {
		if !r.tokSent[level] {
			return false
		}
	}
	return r.tokIn[r.s.BF.D][0] && r.tokIn[r.s.BF.D][1]
}

// completed returns the packets that reached the bottommost level at this
// column, one per aggregation group, fully combined, in arrival order.
func (r *combineRouter[T]) completed() []pkt[T] {
	return r.pend[r.s.BF.D]
}

// runCombine drives the router until quiescent, sleeping through the rounds
// in which a step moves nothing. Attached nodes (no butterfly column) pass a
// nil router and return immediately. Under faults a lost token would spin
// this loop to MaxRounds, so the whole phase is bounded by a multiple of the
// patience budget; giving up strands whatever packets are still pending
// (their groups degrade to partial aggregates downstream).
func runCombine[T any](s *Session, r *combineRouter[T]) {
	if r == nil {
		return
	}
	r.absorb()
	deadline := s.giveUp(s.Ctx.Round(), 8*s.patience)
	for !r.done() && s.Ctx.Round() < deadline {
		if r.step() {
			s.Advance()
		} else {
			s.wait(deadline)
		}
		r.absorb()
	}
}
