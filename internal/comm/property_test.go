package comm

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"ncc/internal/ncc"
)

// Property: for arbitrary random Aggregation Problems, the primitive computes
// exactly the per-group sums a direct computation yields, at every target,
// with zero drops. Exercises odd n (attached nodes), group fan-in collisions
// and value combining under random loads.
func TestAggregatePropertyRandomProblems(t *testing.T) {
	check := func(seed int64, n16 uint16, groups8, members8 uint8) bool {
		n := 2 + int(n16)%60
		groups := 1 + int(groups8)%20
		membersPer := 1 + int(members8)%6
		rng := rand.New(rand.NewPCG(uint64(seed), 1))

		type member struct {
			node int
			val  uint64
		}
		want := map[uint64]uint64{}
		target := map[uint64]int{}
		items := make([][]Agg[uint64], n)
		for g := 0; g < groups; g++ {
			target[uint64(g)] = rng.IntN(n)
			for j := 0; j < membersPer; j++ {
				m := rng.IntN(n)
				v := rng.Uint64() % 1000
				items[m] = append(items[m], Agg[uint64]{Group: uint64(g), Target: target[uint64(g)], Val: v})
				want[uint64(g)] += v
			}
		}
		var mu sync.Mutex
		got := map[uint64]uint64{}
		gotAt := map[uint64]int{}
		st, err := ncc.Run(ncc.Config{N: n, Seed: seed}, func(ctx *ncc.Context) {
			s := NewSession(ctx)
			res := Aggregate(s, items[ctx.ID()], Sum, groups)
			mu.Lock()
			for _, gv := range res {
				got[gv.Group] += gv.Val
				gotAt[gv.Group] = ctx.ID()
			}
			mu.Unlock()
		})
		if err != nil || st.Dropped() != 0 {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for g, w := range want {
			if got[g] != w || gotAt[g] != target[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Aggregate-and-Broadcast with MAX over an arbitrary contributing
// subset returns the true maximum to every node, for any clique size.
func TestAggregateBroadcastProperty(t *testing.T) {
	check := func(seed int64, n16 uint16, mask uint32) bool {
		n := 2 + int(n16)%50
		anyone := false
		var want uint64
		vals := make([]uint64, n)
		has := make([]bool, n)
		rng := rand.New(rand.NewPCG(uint64(seed), 2))
		for i := 0; i < n; i++ {
			vals[i] = rng.Uint64() % 10000
			has[i] = mask&(1<<(i%32)) != 0
			if has[i] {
				if !anyone || vals[i] > want {
					want = vals[i]
				}
				anyone = true
			}
		}
		ok := true
		var mu sync.Mutex
		_, err := ncc.Run(ncc.Config{N: n, Seed: seed}, func(ctx *ncc.Context) {
			s := NewSession(ctx)
			v, found := AggregateAndBroadcast(s, vals[ctx.ID()], has[ctx.ID()], Max)
			mu.Lock()
			if found != anyone || (found && v != want) {
				ok = false
			}
			mu.Unlock()
		})
		return err == nil && ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: multicast over random trees delivers each source's payload to
// exactly its members, whatever the group topology.
func TestMulticastProperty(t *testing.T) {
	check := func(seed int64, n16 uint16, groups8 uint8) bool {
		n := 4 + int(n16)%40
		groups := 1 + int(groups8)%(n/2)
		p := makeMulticastProblem(n, groups, seed)
		lhat := p.maxMemberships()
		ok := true
		var mu sync.Mutex
		_, err := ncc.Run(ncc.Config{N: n, Seed: seed}, func(ctx *ncc.Context) {
			s := NewSession(ctx)
			trees := s.SetupTrees(p.items(ctx.ID()))
			var group uint64
			var isSource bool
			for g, src := range p.sources {
				if src == ctx.ID() {
					group, isSource = g, true
				}
			}
			var val uint64
			if isSource {
				val = p.vals[group]
			}
			got := Multicast(s, trees, isSource, group, val, U64Wire{}, lhat)
			// Duplicate memberships are legal and yield one delivery each.
			want := map[uint64]int{}
			for _, g := range p.members[ctx.ID()] {
				want[g]++
			}
			gotPer := map[uint64]int{}
			mu.Lock()
			if len(got) != len(p.members[ctx.ID()]) {
				ok = false
			}
			for _, gv := range got {
				gotPer[gv.Group]++
				if want[gv.Group] == 0 || gv.Val != p.vals[gv.Group] {
					ok = false
				}
			}
			for g, c := range want {
				if gotPer[g] != c {
					ok = false
				}
			}
			mu.Unlock()
		})
		return err == nil && ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Sessions must stay usable for long mixed workloads: interleave every
// primitive repeatedly and confirm queues stay clean (assertDrained fires on
// leakage).
func TestSessionLongMixedWorkload(t *testing.T) {
	const n = 23 // odd: exercises attached nodes
	st := runAll(t, n, 77, func(s *Session) {
		me := s.Ctx.ID()
		for iter := 0; iter < 4; iter++ {
			s.Synchronize()
			sum, _ := AggregateAndBroadcast(s, uint64(1), true, Sum)
			if sum != n {
				panic("bad sum")
			}
			res := Aggregate(s, []Agg[uint64]{{Group: uint64((me + iter) % n), Target: (me + iter) % n, Val: 1}}, Sum, 1)
			_ = res
			trees := s.SetupTrees([]TreeItem{{Group: uint64((me + 1) % n), Origin: me}})
			got := Multicast(s, trees, true, uint64(me), uint64(iter), U64Wire{}, 1)
			if len(got) != 1 || got[0].Val != uint64(iter) {
				panic("bad multicast")
			}
			// I am a member of group (me+1)%n, so I receive that source's id.
			v, okk := MultiAggregate(s, trees, true, uint64(me), uint64(me), Min)
			if !okk || v != uint64((me+1)%n) {
				panic("bad multi-aggregate")
			}
		}
	})
	if st.Dropped() != 0 {
		t.Errorf("mixed workload dropped %d messages", st.Dropped())
	}
}
