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

	// Preprocessing and combining: inject the membership packets at
	// uniformly random level-0 columns, then route and merge until every
	// column is quiescent.
	in := newInjector(s, r, h, seq, c.Wire)
	for _, it := range items {
		in.add(it.Group, int32(it.Target), int32(s.Ctx.ID()), it.Val)
	}
	in.combine()

	// Postprocessing: deliver each completed group to its target within a
	// randomized window of ceil(lhat2/log n) rounds.
	return deliverResults(s, r, c.Wire, s.window(lhat2))
}

// deliverResults plans every completed group's value at a uniformly random
// round of the window, delivers the plan, and collects the results
// addressed to this node.
func deliverResults[T any](s *Session, r *combineRouter[T], w Wire[T], window int) []GroupVal[T] {
	st := stateFor[T](s)
	plan := st.planWindow(window)
	if r != nil {
		// Draw the window rounds in group order, so which group gets which
		// draw does not depend on how the packets reached the bottom level.
		done := r.completed()
		slices.SortFunc(done, func(a, b pkt[T]) int { return cmp.Compare(a.group, b.group) })
		for _, p := range done {
			t := randRound(s.Ctx.Rand(), window)
			plan[t] = append(plan[t], p)
		}
	}
	mine := deliver(s, st, tagResult, w)
	for _, m := range s.qResult {
		mine = append(mine, GroupVal[T]{Group: m.group, Val: w.Decode(s.words(m.val))})
	}
	s.qResult = s.qResult[:0]
	st.out = mine
	return mine
}
