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
