package comm

import (
	"cmp"
	"slices"
	"sync"
	"testing"
)

// selectLevel is the butterfly level the hand-built router tests route at;
// bit selectLevel of a packet's destCol picks its down-edge there.
const selectLevel = 1

// selectPackets mixes equal ranks with different groups on both down-edges.
// The (rank, group) minimum is group 2 on edge 0 and group 4 on edge 1.
func selectPackets() []pkt[uint64] {
	mk := func(group uint64, rank uint32, destCol int32) pkt[uint64] {
		return pkt[uint64]{group: group, rank: rank, destCol: destCol, val: group * 10}
	}
	return []pkt[uint64]{
		mk(5, 3, 0b001), // edge 0
		mk(2, 3, 0b100), // edge 0: ties rank 3, wins on group
		mk(1, 4, 0b000), // edge 0
		mk(9, 1, 0b010), // edge 1
		mk(4, 1, 0b111), // edge 1: ties rank 1, wins on group
		mk(0, 2, 0b110), // edge 1
	}
}

// permutations calls fn with every ordering of ps (Heap's algorithm).
func permutations(ps []pkt[uint64], fn func([]pkt[uint64])) {
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			fn(ps)
			return
		}
		for i := 0; i < k; i++ {
			gen(k - 1)
			if k%2 == 0 {
				ps[i], ps[k-1] = ps[k-1], ps[i]
			} else {
				ps[0], ps[k-1] = ps[k-1], ps[0]
			}
		}
	}
	gen(len(ps))
}

func groupsOf(ps []pkt[uint64]) []uint64 {
	gs := make([]uint64, len(ps))
	for i, p := range ps {
		gs[i] = p.group
	}
	return gs
}

func byGroup(ps []pkt[uint64]) []pkt[uint64] {
	ps = slices.Clone(ps)
	slices.SortFunc(ps, func(a, b pkt[uint64]) int { return cmp.Compare(a.group, b.group) })
	return ps
}

// TestCombineSelectMin builds a router level by hand and checks that
// selectMin picks the minimum (rank, group) per down-edge under every
// insertion order, and reports not-found when no packet needs the edge.
func TestCombineSelectMin(t *testing.T) {
	r := &combineRouter[uint64]{pend: make([][]pkt[uint64], selectLevel+1)}
	orders := 0
	permutations(selectPackets(), func(q []pkt[uint64]) {
		orders++
		r.pend[selectLevel] = q
		for bit, want := range []uint64{2, 4} {
			i, ok := r.selectMin(selectLevel, bit)
			if !ok || q[i].group != want {
				t.Fatalf("order %v, edge %d: selectMin = (%d, %v), want group %d", groupsOf(q), bit, i, ok, want)
			}
		}
	})
	if orders != 720 {
		t.Fatalf("visited %d insertion orders, want 720", orders)
	}

	r.pend[selectLevel] = selectPackets()[:3] // edge-0 packets only
	if i, ok := r.selectMin(selectLevel, 1); ok {
		t.Errorf("edge 1 has no packet, selectMin returned index %d", i)
	}
	r.pend[selectLevel] = nil
	for bit := 0; bit <= 1; bit++ {
		if i, ok := r.selectMin(selectLevel, bit); ok {
			t.Errorf("empty level, edge %d: selectMin returned index %d", bit, i)
		}
	}
}

// TestCombineStepSwapRemove runs one step per insertion order on a
// hand-filled level at node 0 of an 8-node clique: the straight-edge winner
// is staged locally, the cross-edge winner is sent to column 1<<selectLevel,
// and the level is left holding exactly the unsent packets.
func TestCombineStepSwapRemove(t *testing.T) {
	const n = 8
	all := selectPackets()
	var orders [][]pkt[uint64]
	permutations(all, func(q []pkt[uint64]) { orders = append(orders, slices.Clone(q)) })
	var mu sync.Mutex
	var left [][]pkt[uint64]
	var staged [][]uint64
	var sent []uint64
	runAll(t, n, 1, func(s *Session) {
		s.Synchronize() // both nodes below step and receive in the same rounds
		switch s.Ctx.ID() {
		case 0:
			r := stateFor[uint64](s).combine(s, 1, Sum, nil)
			r.tokSent[0] = true // level 0 stays empty; keep its token out of the way
			for _, q := range orders {
				r.pend[selectLevel] = slices.Clone(q)
				r.nextPkts = r.nextPkts[:0]
				if !r.step() {
					t.Errorf("order %v: step moved nothing", groupsOf(q))
				}
				var st []uint64
				for _, sp := range r.nextPkts {
					if sp.level != selectLevel+1 {
						t.Errorf("staged at level %d, want %d", sp.level, selectLevel+1)
					}
					st = append(st, sp.p.group)
				}
				mu.Lock()
				left = append(left, byGroup(r.pend[selectLevel]))
				staged = append(staged, st)
				mu.Unlock()
				s.Advance()
			}
		case 1 << selectLevel:
			for range orders {
				s.Advance()
				mu.Lock()
				for _, m := range s.qRoute {
					sent = append(sent, m.group)
				}
				mu.Unlock()
				s.qRoute = s.qRoute[:0]
			}
		}
	})
	if len(left) != len(orders) || len(sent) != len(orders) {
		t.Fatalf("%d steps recorded, %d packets sent, want %d each", len(left), len(sent), len(orders))
	}
	var unsent []pkt[uint64]
	for _, p := range byGroup(all) {
		if p.group != 2 && p.group != 4 {
			unsent = append(unsent, p)
		}
	}
	for k := range orders {
		if !slices.Equal(left[k], unsent) {
			t.Errorf("order %v: level left with %v, want %v", groupsOf(orders[k]), left[k], unsent)
		}
		if !slices.Equal(staged[k], []uint64{2}) {
			t.Errorf("order %v: staged %v on the straight edge, want [2]", groupsOf(orders[k]), staged[k])
		}
		if sent[k] != 4 {
			t.Errorf("order %v: sent group %d on the cross edge, want 4", groupsOf(orders[k]), sent[k])
		}
	}
}

// spreadLevel is the level the hand-built spreading-router tests send from:
// its up-edges lead to level selectLevel, side 0 to the node's own column
// and side 1 to column 1<<selectLevel, the receiver of the combine tests.
const spreadLevel = selectLevel + 1

// spreadQueues distributes ps, in order, onto the two up-edge queues of a
// spreading router level: a packet takes the side its destCol bit
// selectLevel names, so selectPackets' per-edge minima stay groups 2 and 4.
func spreadQueues(ps []pkt[uint64]) [2][]spreadItem[uint64] {
	var qs [2][]spreadItem[uint64]
	for _, p := range ps {
		side := int(p.destCol>>selectLevel) & 1
		qs[side] = append(qs[side], spreadItem[uint64]{group: p.group, rank: p.rank, val: p.val})
	}
	return qs
}

func itemGroups(its []spreadItem[uint64]) []uint64 {
	gs := make([]uint64, len(its))
	for i, it := range its {
		gs[i] = it.group
	}
	slices.Sort(gs)
	return gs
}

// TestSpreadStepSwapRemove is TestCombineStepSwapRemove for the spreading
// router: for every insertion order of the two up-edge queues at node 0 of
// an 8-node clique, one step sends each edge's minimum (rank, group), the
// straight-edge winner staged locally and the cross-edge winner sent to
// column 1<<selectLevel, and leaves each queue holding exactly its unsent
// packets.
func TestSpreadStepSwapRemove(t *testing.T) {
	const n = 8
	var orders [][]pkt[uint64]
	permutations(selectPackets(), func(q []pkt[uint64]) { orders = append(orders, slices.Clone(q)) })
	var mu sync.Mutex
	var left [][2][]uint64
	var staged [][]uint64
	var sent []uint64
	runAll(t, n, 1, func(s *Session) {
		s.Synchronize() // both nodes below step and receive in the same rounds
		switch s.Ctx.ID() {
		case 0:
			r := stateFor[uint64](s).spread(s, 1, U64Wire{}, nil, nil)
			for _, q := range orders {
				r.queues[spreadLevel] = spreadQueues(q)
				r.nextItems = r.nextItems[:0]
				if !r.step() {
					t.Errorf("order %v: step moved nothing", groupsOf(q))
				}
				var st []uint64
				for _, sp := range r.nextItems {
					if sp.level != selectLevel {
						t.Errorf("staged at level %d, want %d", sp.level, selectLevel)
					}
					st = append(st, sp.it.group)
				}
				mu.Lock()
				left = append(left, [2][]uint64{itemGroups(r.queues[spreadLevel][0]), itemGroups(r.queues[spreadLevel][1])})
				staged = append(staged, st)
				mu.Unlock()
				if slices.ContainsFunc(r.tokSent, func(ts [2]bool) bool { return ts[0] || ts[1] }) {
					t.Errorf("order %v: token emitted with no level quiescent", groupsOf(q))
				}
				s.Advance()
			}
		case 1 << selectLevel:
			for range orders {
				s.Advance()
				mu.Lock()
				for _, m := range s.qSpread {
					if m.level != selectLevel {
						t.Errorf("sent into level %d, want %d", m.level, selectLevel)
					}
					sent = append(sent, m.group)
				}
				mu.Unlock()
				s.qSpread = s.qSpread[:0]
			}
		}
	})
	if len(left) != len(orders) || len(sent) != len(orders) {
		t.Fatalf("%d steps recorded, %d packets sent, want %d each", len(left), len(sent), len(orders))
	}
	want := [2][]uint64{{1, 5}, {0, 9}}
	for k := range orders {
		if !slices.Equal(left[k][0], want[0]) || !slices.Equal(left[k][1], want[1]) {
			t.Errorf("order %v: queues left with %v, want %v", groupsOf(orders[k]), left[k], want)
		}
		if !slices.Equal(staged[k], []uint64{2}) {
			t.Errorf("order %v: staged %v on the straight edge, want [2]", groupsOf(orders[k]), staged[k])
		}
		if sent[k] != 4 {
			t.Errorf("order %v: sent group %d on the cross edge, want 4", groupsOf(orders[k]), sent[k])
		}
	}
}

// TestRouterTokenRules pins the two routers' quiescence rules with the
// level's upper edges certified done and packets left only on the straight
// edge. The combining router emits a level's two tokens only once the whole
// level is empty, so its idle cross edge waits for the straight edge; the
// spreading router emits per edge, so its idle cross edge gets its token in
// the first step.
func TestRouterTokenRules(t *testing.T) {
	const n = 8
	straight := selectPackets()[:2] // groups 5 and 2, both on edge 0
	type tokens struct{ route, spread int }
	var mu sync.Mutex
	var got []tokens
	var combineSent []bool
	var spreadSent [][2]bool
	var combineStaged, spreadStaged []int
	runAll(t, n, 1, func(s *Session) {
		s.Synchronize()
		switch s.Ctx.ID() {
		case 0:
			st := stateFor[uint64](s)
			cr := st.combine(s, 1, Sum, nil)
			cr.tokSent[0] = true // level 0 stays empty; keep its token out of the way
			cr.tokIn[selectLevel] = [2]bool{true, true}
			cr.pend[selectLevel] = slices.Clone(straight)
			for range 2 {
				cr.step()
				mu.Lock()
				combineSent = append(combineSent, cr.tokSent[selectLevel])
				combineStaged = append(combineStaged, len(cr.nextToks))
				mu.Unlock()
				s.Advance()
			}
			sr := st.spread(s, 2, U64Wire{}, nil, nil)
			sr.tokIn[spreadLevel] = [2]bool{true, true}
			sr.queues[spreadLevel] = spreadQueues(straight)
			for range 2 {
				sr.step()
				mu.Lock()
				spreadSent = append(spreadSent, sr.tokSent[spreadLevel])
				spreadStaged = append(spreadStaged, len(sr.nextToks))
				mu.Unlock()
				s.Advance()
			}
		case 1 << selectLevel:
			for range 4 {
				s.Advance()
				mu.Lock()
				got = append(got, tokens{len(s.qRtTok), len(s.qSpTok)})
				mu.Unlock()
				s.qRtTok = s.qRtTok[:0]
				s.qSpTok = s.qSpTok[:0]
			}
		}
	})
	if want := []bool{false, true}; !slices.Equal(combineSent, want) {
		t.Errorf("combine tokens emitted after each step %v, want %v (whole level first)", combineSent, want)
	}
	if want := []int{0, 1}; !slices.Equal(combineStaged, want) {
		t.Errorf("combine straight-edge tokens staged after each step %v, want %v", combineStaged, want)
	}
	if want := [][2]bool{{false, true}, {true, true}}; !slices.Equal(spreadSent, want) {
		t.Errorf("spread tokens emitted after each step %v, want %v (per edge)", spreadSent, want)
	}
	if want := []int{0, 1}; !slices.Equal(spreadStaged, want) {
		t.Errorf("spread straight-edge tokens staged after each step %v, want %v", spreadStaged, want)
	}
	// Cross-edge tokens reach column 1<<selectLevel one round after their
	// step: combine's with its second step, spread's with its first.
	if want := []tokens{{0, 0}, {1, 0}, {0, 1}, {0, 0}}; !slices.Equal(got, want) {
		t.Errorf("cross-edge tokens received per round %v, want %v", got, want)
	}
}
