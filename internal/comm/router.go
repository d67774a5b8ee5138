package comm

import "ncc/internal/ncc"

// The three steps the routing collectives share (see "Routing collectives"
// in the package doc), each written once: the injector, route and deliver.

// injector is the injection step (Appendix B.2's preprocessing): add
// sends each packet to a uniformly random level-0 column as the caller
// builds it, ending the round after every batchSize packets. Drawing the
// column as the packet is added keeps the node's random stream in packet
// order whatever the caller draws in between (MultiAggregatePick's
// annotations). A packet drawn for the node's own column is staged locally:
// the hop costs a round whether or not it crosses columns. A nil router
// means this node is attached (no butterfly column).
type injector[T any] struct {
	s     *Session
	r     *combineRouter[T]
	h     pktHash
	seq   uint32
	w     Wire[T]
	batch int
	sent  int
}

func newInjector[T any](s *Session, r *combineRouter[T], h pktHash, seq uint32, w Wire[T]) injector[T] {
	return injector[T]{s: s, r: r, h: h, seq: seq, w: w, batch: s.batchSize()}
}

// add injects a packet of group g; its destination column and rank come
// from the invocation's hash pair.
func (in *injector[T]) add(g uint64, target, origin int32, val T) {
	s := in.s
	p := pkt[T]{group: g, destCol: in.h.destCol(g), rank: in.h.rankOf(g), target: target, origin: origin, val: val}
	col := s.Ctx.Rand().IntN(s.BF.Cols)
	if in.r != nil && col == in.r.col {
		in.r.nextPkts = append(in.r.nextPkts, stagedPkt[T]{level: 0, p: p})
	} else {
		sendRoute(s, s.BF.Host(col), in.seq, 0, in.w, p)
	}
	in.sent++
	if in.sent%in.batch == 0 {
		s.Advance()
	}
}

// combine ends the injection with the last, partial round (the only one
// when nothing was added), then routes the packets to their groups'
// destination columns, with the clique synchronized before and after.
func (in *injector[T]) combine() {
	s := in.s
	if in.sent%in.batch != 0 || in.sent == 0 {
		s.Advance()
	}
	s.Synchronize()
	if in.r != nil {
		route(s, in.r)
	}
	s.Synchronize()
}

// sendRoute encodes a packet crossing into `level` toward node `to`.
func sendRoute[T any](s *Session, to ncc.NodeID, seq uint32, level int, w Wire[T], p pkt[T]) {
	n := w.Words()
	enc := s.encode(4 + n)
	enc[0] = tagRoute<<56 | uint64(seq&seqMask)<<32 | uint64(uint8(level))<<24
	enc[1] = p.group
	enc[2] = uint64(uint32(p.destCol))<<32 | uint64(p.rank)
	enc[3] = uint64(uint32(p.target))<<32 | uint64(uint32(p.origin))
	w.Encode(p.val, enc[4:])
	s.Ctx.SendWords(to, enc)
}

// router is one column's share of a butterfly routing phase: absorb takes
// in what the last round delivered and staged and reports whether the
// column is now quiescent; step moves packets and tokens one butterfly
// round and reports whether it moved anything (a step that moved nothing
// changed no state, so the next one does nothing either until input
// arrives).
type router interface {
	absorb() (done bool)
	step() (moved bool)
}

// route drives r until quiescent, sleeping through the rounds in which a
// step moves nothing. Under faults a lost token would spin this loop to
// MaxRounds, so the whole phase is bounded by a multiple of the patience
// budget; giving up strands whatever packets are still pending (their groups
// degrade to partial values downstream).
func route(s *Session, r router) {
	done := r.absorb()
	deadline := s.giveUp(s.Ctx.Round(), 8*s.patience)
	for !done && s.Ctx.Round() < deadline {
		if r.step() {
			s.Advance()
		} else {
			s.wait(deadline)
		}
		done = r.absorb()
	}
}

// planned is one packet of a delivery plan and the window round it goes
// out in.
type planned[T any] struct {
	t int
	p pkt[T]
}

// planWindow empties st's delivery plan for a window of the given length;
// the caller appends each packet with its round via planAt, in draw order.
func (st *commState[T]) planWindow(window int) {
	st.plan = st.plan[:0]
	st.window = window
}

// planAt adds p to st's plan for round t of the window.
func (st *commState[T]) planAt(t int, p pkt[T]) {
	st.plan = append(st.plan, planned[T]{t: t, p: p})
}

// byRound returns the indexes of st's plan ordered by round, packets of one
// round in the order they were planned: a counting pass over the window's
// rounds and a prefix-sum scatter, both into reused storage.
func (st *commState[T]) byRound() []int32 {
	first := resize(st.first, st.window+1)
	clear(first)
	for i := range st.plan {
		first[st.plan[i].t+1]++
	}
	for t := 1; t <= st.window; t++ {
		first[t] += first[t-1]
	}
	order := resize(st.order, len(st.plan))
	for i := range st.plan {
		t := st.plan[i].t
		order[first[t]] = int32(i)
		first[t]++
	}
	st.first, st.order = first, order
	return order
}

// resize returns buf with length n, reallocated only if it is too short.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// deliver sends every packet of st's plan to its target under tag at its
// planned round, and returns, in st.out's storage, the values planned for
// this node itself. A round's packets go out in the order they were
// planned. Between planned rounds the node sleeps: arrivals only queue
// until the window closes, and the caller collects them.
func deliver[T any](s *Session, st *commState[T], tag uint64, w Wire[T]) []GroupVal[T] {
	ctx := s.Ctx
	mine := st.out[:0]
	plan := st.plan
	order := st.byRound()
	start := ctx.Round()
	i := 0
	for t := 0; t < st.window; t = ctx.Round() - start {
		for ; i < len(order) && plan[order[i]].t <= t; i++ {
			p := &plan[order[i]].p
			if int(p.target) == ctx.ID() {
				mine = append(mine, GroupVal[T]{Group: p.group, Val: p.val})
			} else {
				sendGroupVal(s, int(p.target), tag, w, p.group, p.val)
			}
		}
		next := st.window
		if i < len(order) {
			next = plan[order[i]].t
		}
		s.wait(start + next)
	}
	return mine
}

// sendGroupVal encodes a final-hop (group, value) delivery under the given
// tag (tagResult for aggregations, tagLeaf for multicast leaves).
func sendGroupVal[T any](s *Session, to ncc.NodeID, tag uint64, w Wire[T], group uint64, val T) {
	n := w.Words()
	enc := s.encode(2 + n)
	enc[0] = tag << 56
	enc[1] = group
	w.Encode(val, enc[2:])
	s.Ctx.SendWords(to, enc)
}

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

// absorb applies staged internal moves and drains the session's routing
// queues — decoding payload words with the invocation's codec — into the
// per-level queues, then reports whether the column is quiescent.
func (r *combineRouter[T]) absorb() (done bool) {
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
		if !s.current("route packet", m.seq, r.seq) {
			continue
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
		if !s.current("route token", m.seq, r.seq) {
			continue
		}
		if s.patience > 0 && (int(m.level) < 0 || int(m.level) >= len(r.tokIn)) {
			continue
		}
		r.tokIn[m.level][m.side] = true
	}
	s.qRtTok = s.qRtTok[:0]
	return r.done()
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
	r.pend[level] = append(q, p)
}

// step performs one butterfly routing round: per down-edge, forward the
// minimum-rank pending packet, then emit the level's two tokens once the
// whole level is empty and its up-edges are done. Empty levels are skipped,
// so a step costs O(pending packets).
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
		// Injection finished before the combining phase started (the
		// injector synchronizes in between), so level 0 receives nothing new.
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
