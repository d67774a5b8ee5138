package comm

import (
	"cmp"
	"slices"

	"ncc/internal/ncc"
)

// Agg is one aggregation-group membership of the calling node: the group's
// identity, the node that must receive the aggregate, and this node's input
// value. A node may be a member and a target of many groups (Section 2.2,
// Aggregation Problem).
type Agg[T any] struct {
	Group  uint64
	Target ncc.NodeID
	Val    T
}

// GroupVal is a per-group result delivered to a target or group member.
type GroupVal[T any] struct {
	Group uint64
	Val   T
}

// Aggregate solves the Aggregation Problem (Theorem 2.3): for every group,
// the inputs of all members are combined with the distributive combiner c and
// delivered to the group's target. Every member must pass the same target for
// the same group. lhat2 is the globally known upper bound on the number of
// nonempty groups any single node is the target of; it controls the
// randomized delivery window, exactly as in Appendix B.2.
//
// Cost: O(L/n + (l1+lhat2)/log n + log n) rounds w.h.p., where L is the
// global load and l1 the maximum number of memberships per node.
//
// The returned slice is reused by the next collective invocation with the
// same payload type (like the engine's EndRound inbox); copy it if it must
// survive that long.
func Aggregate[T any](s *Session, items []Agg[T], c Combiner[T], lhat2 int) []GroupVal[T] {
	s.assertDrained("Aggregate")
	call := s.nextCall()
	h := s.destRank(call)
	seq := seq24(call)

	var r *combineRouter[T]
	if s.BF.IsEmulator(s.Ctx.ID()) {
		r = stateFor[T](s).combine(s, seq, c, nil)
	}

	// Preprocessing: inject packets in batches of ceil(log n) per round to
	// uniformly random bottommost-level (level-0) butterfly nodes.
	inject(s, r, seq, c.Wire, items, h)
	s.Synchronize()

	// Combining: route and merge until the column is quiescent.
	runCombine(s, r)
	s.Synchronize()

	// Postprocessing: deliver each completed group to its target within a
	// randomized window of ceil(lhat2/log n) rounds.
	return deliverResults(s, r, c.Wire, s.window(lhat2))
}

// inject sends the node's membership packets to random level-0 columns,
// batch-by-batch. Packets addressed to the node's own column are staged
// locally (same one-round latency, no clique message). A nil router means
// this node is attached (no butterfly column), so nothing can stage locally.
func inject[T any](s *Session, r *combineRouter[T], seq uint32, w Wire[T], items []Agg[T], h pktHash) {
	ctx := s.Ctx
	batch := s.batchSize()
	for i, it := range items {
		p := pkt[T]{
			group:   it.Group,
			destCol: h.destCol(it.Group),
			rank:    h.rankOf(it.Group),
			target:  int32(it.Target),
			origin:  int32(ctx.ID()),
			val:     it.Val,
		}
		col := ctx.Rand().IntN(s.BF.Cols)
		if r != nil && col == r.col {
			r.stageLocal(p)
		} else {
			sendRoute(s, s.BF.Host(col), seq, 0, w, p)
		}
		if (i+1)%batch == 0 {
			s.Advance()
		}
	}
	if len(items)%batch != 0 || len(items) == 0 {
		s.Advance()
	}
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

// deliverResults sends every completed group's value from its intermediate
// target to its final target at a uniformly random round of the window, and
// collects the results addressed to this node. Between its planned sends the
// node sleeps: arrivals only queue until the window closes.
func deliverResults[T any](s *Session, r *combineRouter[T], w Wire[T], window int) []GroupVal[T] {
	ctx := s.Ctx
	st := stateFor[T](s)
	mine := st.out[:0]
	plan := st.plan
	if cap(plan) < window {
		plan = make([][]pkt[T], window)
	} else {
		plan = plan[:window]
	}
	for i := range plan {
		plan[i] = plan[i][:0]
	}
	st.plan = plan
	if r != nil {
		// Draw the window rounds in group order, so which group gets which
		// draw does not depend on how the packets reached the bottom level.
		done := r.completed()
		slices.SortFunc(done, func(a, b pkt[T]) int { return cmp.Compare(a.group, b.group) })
		for _, p := range done {
			t := randRound(ctx.Rand(), window)
			plan[t] = append(plan[t], p)
		}
	}
	start := ctx.Round()
	for t := 0; t < window; t = ctx.Round() - start {
		for _, p := range plan[t] {
			if int(p.target) == ctx.ID() {
				mine = append(mine, GroupVal[T]{Group: p.group, Val: p.val})
			} else {
				sendGroupVal(s, int(p.target), tagResult, w, p.group, p.val)
			}
		}
		next := t + 1
		for next < window && len(plan[next]) == 0 {
			next++
		}
		s.wait(start + next)
	}
	for _, m := range s.qResult {
		mine = append(mine, GroupVal[T]{Group: m.group, Val: w.Decode(s.words(m.val))})
	}
	s.qResult = s.qResult[:0]
	st.out = mine
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
