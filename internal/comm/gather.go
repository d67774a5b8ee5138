package comm

import (
	"ncc/internal/butterfly"
	"ncc/internal/ncc"
)

// Synchronize blocks until every node of the clique has called it and returns
// at a common round at every node. It is the synchronization variant of the
// Aggregate-and-Broadcast algorithm (Appendix B.1): nodes feed tokens up the
// butterfly's reduction tree as they arrive; the root then releases everyone
// with a common exit round. Cost: O(log n) rounds after the last participant
// arrives.
func (s *Session) Synchronize() {
	gatherScatter[Flag](s, ZeroWire{}, AnyFlag.Combine, Flag{}, false)
}

// AggregateAndBroadcast computes the distributive aggregate of the input
// values of all nodes with has set, and returns it to every node (Theorem
// 2.2, O(log n) rounds). The boolean result reports whether any node
// contributed a value. Like all primitives it also synchronizes the network.
// It must be entered at a common round across nodes (true after any
// collective, which all exit at a common round).
func AggregateAndBroadcast[T any](s *Session, val T, has bool, c Combiner[T]) (T, bool) {
	return gatherScatter(s, c.Wire, c.Combine, val, has)
}

// sendGather emits a gather message carrying val iff has.
func sendGather[T any](s *Session, to ncc.NodeID, w Wire[T], val T, has bool) {
	h := tagGather << 56
	n := 1
	if has {
		h |= 1
		n += w.Words()
	}
	enc := s.encode(n)
	enc[0] = h
	if has {
		w.Encode(val, enc[1:])
	}
	s.Ctx.SendWords(to, enc)
}

// gatherScatter implements both Synchronize and Aggregate-and-Broadcast: a
// token/value wave up the hypercube reduction tree over the butterfly
// columns, then a release wave down carrying the aggregate and a common exit
// round.
func gatherScatter[T any](s *Session, w Wire[T], merge func(a, b T) T, val T, has bool) (T, bool) {
	ctx := s.Ctx
	bf := s.BF

	if col, attached := bf.AttachedColumn(ctx.ID()); attached {
		// Contribute to the level-0 node we are attached to, then await the
		// release forwarded by our host.
		sendGather(s, bf.Host(col), w, val, has)
		exit, rv, rhas := awaitRelease(s, w)
		s.idleUntil(exit)
		return rv, rhas
	}

	col := bf.Column(ctx.ID())
	acc, accHas := val, has
	need := butterfly.ReduceChildCount(col, bf.D)
	if _, ok := bf.AttachedNode(col); ok {
		need++
	}
	// base is the round of the last contribution (or of entry); a node whose
	// contributions are all queued before it got here must take a plain
	// round to consume them, not sleep on them.
	got, base := 0, ctx.Round()
	for got < need {
		if len(s.qGather) > 0 {
			s.Advance()
		} else {
			s.wait(s.giveUp(base, s.patience+1))
		}
		if len(s.qGather) == 0 {
			if s.patience > 0 && ctx.Round()-base > s.patience {
				break // lost contributions; aggregate over what arrived
			}
			continue
		}
		base = ctx.Round()
		for _, g := range s.qGather {
			got++
			if g.has && (s.patience == 0 || int(g.val.n) == w.Words()) {
				v := w.Decode(s.words(g.val))
				if accHas {
					acc = merge(acc, v)
				} else {
					acc, accHas = v, true
				}
			}
		}
		s.qGather = s.qGather[:0]
	}

	if col != 0 {
		sendGather(s, bf.Host(butterfly.ReduceParent(col)), w, acc, accHas)
		exit, rv, rhas := awaitRelease(s, w)
		forwardRelease(s, col, w, exit, rv, rhas)
		s.idleUntil(exit)
		return rv, rhas
	}

	// Root: everyone has contributed; release with a common exit round
	// deep enough for the longest forwarding chain (D tree hops plus the
	// attached-node hop).
	exit := ctx.Round() + bf.D + 2
	forwardRelease(s, 0, w, exit, acc, accHas)
	s.idleUntil(exit)
	if !accHas {
		// No contributor anywhere: return the zero value, exactly what the
		// release wave just delivered to every other node — the result must
		// be uniform across the clique even when it is "nothing".
		var zero T
		return zero, false
	}
	return acc, accHas
}

// awaitRelease blocks for the release wave and decodes its aggregate. Under
// faults a lost release gives up after the patience budget and reports no
// value, exiting at the current round.
func awaitRelease[T any](s *Session, w Wire[T]) (exitRound int, val T, has bool) {
	deadline := s.giveUp(s.Ctx.Round(), s.patience+1)
	for len(s.qRelease) == 0 {
		if s.Ctx.Round() >= deadline {
			return s.Ctx.Round(), val, false
		}
		s.wait(deadline)
	}
	m := s.qRelease[0]
	if m.has && (s.patience == 0 || int(m.val.n) == w.Words()) {
		val = w.Decode(s.words(m.val))
	} else {
		m.has = false
	}
	s.qRelease = s.qRelease[:0]
	return m.exitRound, val, m.has
}

// forwardRelease re-encodes the release and fans it down the reduction tree.
func forwardRelease[T any](s *Session, col int, w Wire[T], exitRound int, val T, has bool) {
	bf := s.BF
	nChildren := butterfly.ReduceChildCount(col, bf.D)
	att, hasAtt := bf.AttachedNode(col)
	if nChildren == 0 && !hasAtt {
		return
	}
	h := tagRelease<<56 | uint64(exitRound)<<16
	n := 1
	if has {
		h |= 1
		n += w.Words()
	}
	enc := s.encode(n)
	enc[0] = h
	if has {
		w.Encode(val, enc[1:])
	}
	for j := 0; j < nChildren; j++ {
		s.Ctx.SendWords(bf.Host(butterfly.ReduceChild(col, j)), enc)
	}
	if hasAtt {
		s.Ctx.SendWords(att, enc)
	}
}

// idleUntil advances rounds until the global round counter reaches target.
// Under faults the target may come from a corrupted release word, so it is
// clamped to the deepest exit any honest release could name plus patience.
func (s *Session) idleUntil(target int) {
	if s.patience > 0 {
		target = min(target, s.Ctx.Round()+s.BF.D+2+s.patience)
	}
	for s.Ctx.Round() < target {
		s.wait(target)
	}
}

// AnyTrue aggregates a boolean OR across all nodes (a common special case).
func (s *Session) AnyTrue(local bool) bool {
	v := uint64(0)
	if local {
		v = 1
	}
	out, ok := AggregateAndBroadcast(s, v, true, Or)
	return ok && out != 0
}

// SumCount aggregates (sum, count) over contributing nodes and returns both.
func (s *Session) SumCount(val uint64, has bool) (sum, count uint64) {
	out, ok := AggregateAndBroadcast(s, Pair{A: val, B: 1}, has, SumPair)
	if !ok {
		return 0, 0
	}
	return out.A, out.B
}

// MaxAll aggregates a maximum over contributing nodes; ok reports whether
// anyone contributed.
func (s *Session) MaxAll(val uint64, has bool) (uint64, bool) {
	return AggregateAndBroadcast(s, val, has, Max)
}

// BroadcastWords delivers `count` words from node src to every node: src
// ships them to node 0 in capacity-bounded batches, node 0 pipelines them
// down the reduction tree one word per round, and hosts forward each word to
// their attached node. Cost: O(count + log n) rounds. All nodes must pass the
// same src and count; only src's words slice is consulted. Ends synchronized.
func (s *Session) BroadcastWords(src ncc.NodeID, words []uint64, count int) []uint64 {
	ctx := s.Ctx
	bf := s.BF
	if s.patience > 0 {
		// Under faults, count may derive from a degraded aggregate at some
		// nodes: clamp it to the largest broadcast any algorithm here
		// legitimately performs (O(n) ids) so a garbage count cannot demand
		// an absurd allocation or an endless pipeline.
		count = max(0, min(count, 4*ctx.N()+s.patience))
	}
	if count == 0 {
		s.Synchronize()
		return nil
	}

	out := make([]uint64, count)
	have := 0
	if ctx.ID() == src {
		// Reliable callers always hold count words; a degraded caller may
		// disagree with its own clamped count, so ship what exists.
		have = min(count, len(words))
		copy(out, words[:have])
		// Ship to the broadcast root if we are not hosting it.
		if src != 0 {
			batch := s.batchSize()
			for i := 0; i < count; i += batch {
				for j := i; j < min(i+batch, count); j++ {
					s.sendWord(0, int32(j), out[j])
				}
				s.Advance()
			}
		}
	}

	// collect drains word messages until `need` have arrived, giving up after
	// the patience budget of barren rounds; forward relays each fresh word
	// down the tree (nil at collectors). Word indexes are validated under
	// faults — a corrupted index must not fault the collector. Like the
	// gather wait, it sleeps only while no word is queued.
	collect := func(need int, forward func(idx int32, w uint64)) {
		base := ctx.Round()
		for got := 0; got < need; {
			if len(s.qWords) > 0 {
				s.Advance()
			} else {
				s.wait(s.giveUp(base, s.patience+1))
			}
			if len(s.qWords) == 0 {
				if s.patience > 0 && ctx.Round()-base > s.patience {
					break // missing words stay zero
				}
				continue
			}
			base = ctx.Round()
			for _, m := range s.qWords {
				if s.patience > 0 && (m.idx < 0 || int(m.idx) >= count) {
					continue
				}
				out[m.idx] = m.w
				got++
				if forward != nil {
					forward(m.idx, m.w)
				}
			}
			s.qWords = s.qWords[:0]
		}
	}

	switch {
	case bf.IsEmulator(ctx.ID()) && bf.Column(ctx.ID()) == 0:
		// Root: collect all words (trivial when we are the source), then
		// pipeline one word per round down the reduction tree.
		collect(count-have, nil)
		for i := 0; i < count; i++ {
			s.forwardWord(0, int32(i), out[i], src)
			s.Advance()
		}
	case bf.IsEmulator(ctx.ID()):
		// Inner tree node: store and forward every word arriving from the
		// parent, even if we are the source and already know the contents
		// (our subtree still depends on the relay). The root's pacing
		// guarantees at most one word arrives per round, so forwarding stays
		// within the capacity (at most D+1 copies per word).
		col := bf.Column(ctx.ID())
		collect(count, func(idx int32, w uint64) { s.forwardWord(col, idx, w, src) })
	default:
		// Attached node: just collect (the host skips the hop if we were the
		// source).
		collect(count-have, nil)
	}

	s.Synchronize()
	// A source that did not need the incoming copies may have accumulated
	// stray word messages; drop them so later broadcasts start clean.
	s.qWords = s.qWords[:0]
	return out
}

func (s *Session) sendWord(to ncc.NodeID, idx int32, w uint64) {
	s.Ctx.SendWords2(to, ncc.Words2{tagWord<<56 | uint64(uint32(idx)), w})
}

func (s *Session) forwardWord(col int, idx int32, w uint64, src ncc.NodeID) {
	bf := s.BF
	for j, c := 0, butterfly.ReduceChildCount(col, bf.D); j < c; j++ {
		s.sendWord(bf.Host(butterfly.ReduceChild(col, j)), idx, w)
	}
	if att, ok := bf.AttachedNode(col); ok && att != src {
		s.sendWord(att, idx, w)
	}
}
