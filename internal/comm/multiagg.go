package comm

// MultiAggregate solves the Multi-Aggregation Problem (Theorem 2.6) over
// previously set-up multicast trees: every source's packet is multicast to
// its group, and every node receives the aggregate of the packets of all
// groups it belongs to, as a single value. Returns (aggregate, ok) where ok
// reports whether any packet was addressed to this node.
//
// Only nodes with isSource inject packets, so the effective congestion — and
// hence the cost O(C + log n) w.h.p. — scales with the active sources only
// (Corollary 1: O(sum of d(u) over sources / n + log n) for broadcast trees).
func MultiAggregate[T any](s *Session, t *Trees, isSource bool, group uint64, val T, c Combiner[T]) (T, bool) {
	return multiAggregate(s, t, isSource, group, val, c.Wire, c, func(v T) T { return v })
}

// MultiAggregatePick is the randomized variant used by the maximal matching
// algorithm (Section 5.3): every member that belongs to at least one
// source's group receives the id of one such source chosen uniformly at
// random — the leaf nodes annotate each mapped packet with a fresh random
// rank and the minimum-annotation packet survives the aggregation. The
// source's value must be its own id.
func MultiAggregatePick(s *Session, t *Trees, isSource bool, group uint64, id uint64) (uint64, bool) {
	rng := s.Ctx.Rand()
	v, ok := multiAggregate(s, t, isSource, group, id, U64Wire{}, MinPair,
		func(id uint64) Pair { return Pair{A: rng.Uint64(), B: id} })
	if !ok {
		return 0, false
	}
	return v.B, true
}

// multiAggregate spreads S-typed source packets down the trees, has the
// leaves map each delivered packet to one T-typed packet per recorded member
// (mapVal bridges the two types; the identity for plain MultiAggregate), and
// aggregates the mapped packets toward each member's own singleton group.
func multiAggregate[S, T any](s *Session, t *Trees, isSource bool, group uint64, val S, sw Wire[S], c Combiner[T], mapVal func(S) T) (T, bool) {
	s.assertDrained("MultiAggregate")
	spreadCall := s.nextCall()
	combCall := s.nextCall()
	spreadRank := s.rankOnly(spreadCall)
	h := s.destRank(combCall)
	spreadSeq := seq24(spreadCall)
	combSeq := seq24(combCall)
	ctx := s.Ctx
	em := s.BF.IsEmulator(ctx.ID())

	// Phase 1: multicast the source packets down to the leaves (no member
	// delivery; the leaves keep them for remapping).
	var sr *spreadRouter[S]
	if em {
		sr = stateFor[S](s).spread(s, spreadSeq, sw, t, spreadRank)
	}
	var packets []SourcePacket[S]
	if isSource {
		packets = []SourcePacket[S]{{Group: group, Val: val}}
	}
	spreadPhase(s, sr, spreadSeq, sw, t, packets)

	// Phase 2: every leaf maps each received packet p of group g to one
	// packet (id(u), mapVal(p)) per member u recorded at the leaf and
	// injects the mapped packets; phase 3 aggregates them toward each
	// member's own group. Each node is the target of exactly one group (its
	// id), so the receive side needs no window, but a bottommost-level column
	// may hold many completed groups; a shared window bounds the send load.
	var cr *combineRouter[T]
	if em {
		cr = stateFor[T](s).combine(s, combSeq, c, nil)
	}
	in := newInjector(s, cr, h, combSeq, c.Wire)
	if sr != nil {
		for _, gv := range sr.leafGot {
			for _, l := range t.leaves(gv.Group) {
				in.add(uint64(l.origin), l.origin, l.origin, mapVal(gv.Val))
			}
		}
		sr.leafGot = sr.leafGot[:0]
	}
	in.combine()

	completed := 0
	if cr != nil {
		completed = len(cr.completed())
	}
	maxCompleted, _ := s.MaxAll(uint64(completed), true)
	window := s.window(int(maxCompleted))
	results := deliverResults(s, cr, c.Wire, window)

	for _, gv := range results {
		if gv.Group == uint64(ctx.ID()) {
			return gv.Val, true
		}
	}
	var zero T
	return zero, false
}
