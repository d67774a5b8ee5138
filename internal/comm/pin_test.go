package comm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"ncc/internal/ncc"
)

// Golden pins of the routing collectives. The literals below are the
// behaviour of the butterfly routers as shipped: any change to packet
// selection, merge order or delivery-window draws moves them. A router
// rewrite that claims to be a pure data-structure change must leave both
// literals untouched.

// congestionPinHash is the sha256 over the per-round RoundSample series and
// every node's results of congestionProgram at n=256, Seed 11.
const congestionPinHash = "sha256:344550740fc11ce3acb52253444f6f739afa1d05f50f5bdf2187cade8ffe1fb8"

// congestionProgram is a congestion-heavy mix of the routing collectives:
// Aggregate with 8 items per node over 64 groups (so every group meets
// ~32 packets and edges are contended) and 32 groups per target (so the
// delivery window spans rounds and its draws count), tree setup plus
// Multicast, MultiAggregate over the same trees, and a closing
// AggregateAndBroadcast.
// Each node appends its results, in the order the collectives return them,
// to out[me].
func congestionProgram(out [][]uint64) func(ctx *ncc.Context) {
	const groups = 64
	return func(ctx *ncc.Context) {
		s := NewSession(ctx)
		me := ctx.ID()
		n := ctx.N()
		var rec []uint64

		items := make([]Agg[uint64], 8)
		for i := range items {
			g := uint64((me*5 + i*11) % groups)
			items[i] = Agg[uint64]{Group: g, Target: int(g%2) * (n / 2), Val: uint64(me*8 + i)}
		}
		for _, gv := range Aggregate(s, items, Sum, groups/2) {
			rec = append(rec, gv.Group, gv.Val)
		}

		trees := s.SetupTrees([]TreeItem{
			{Group: uint64(me % groups), Origin: me},
			{Group: uint64((me*7 + 3) % groups), Origin: me},
		})
		rec = append(rec, uint64(trees.Congestion()))
		src := me < groups
		for _, gv := range Multicast(s, trees, src, uint64(me), uint64(me*me+1), U64Wire{}, 16) {
			rec = append(rec, gv.Group, gv.Val)
		}

		v, ok := MultiAggregate(s, trees, src && me%3 != 0, uint64(me), uint64(1000+me), Min)
		rec = append(rec, v, b2u(ok))

		sum, ok := AggregateAndBroadcast(s, uint64(me), me%2 == 0, Sum)
		rec = append(rec, sum, b2u(ok))
		out[me] = rec
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// hashSample writes a RoundSample's fields into h in declaration order. The 0
// after MaxRecvDelivered holds the slot of a removed send-overflow counter
// (always zero within capacity), so the pinned literal stays valid.
func hashSample(h hash.Hash, s ncc.RoundSample) {
	var buf [8]byte
	for _, v := range []int{s.Round, s.Messages, s.Delivered, s.Words, s.Active, s.Finished, s.Down,
		s.MaxSendLoad, s.MaxRecvOffered, s.MaxRecvDelivered,
		0, s.RecvThrottled, s.DroppedFault, s.DroppedDead, s.DroppedToFinished} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

// TestCollectiveRoutingPinned pins the congestion-heavy collective mix at
// Workers 1 and 2: the RoundSample series and the per-node results hash to
// one literal at both worker counts.
func TestCollectiveRoutingPinned(t *testing.T) {
	const n = 256
	for _, workers := range []int{1, 2} {
		h := sha256.New()
		out := make([][]uint64, n)
		_, err := ncc.Run(ncc.Config{N: n, Seed: 11, Workers: workers,
			Probe: func(s ncc.RoundSample, _ []ncc.ShardTiming) { hashSample(h, s) },
		}, congestionProgram(out))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf [8]byte
		for _, rec := range out {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(rec)))
			h.Write(buf[:])
			for _, w := range rec {
				binary.LittleEndian.PutUint64(buf[:], w)
				h.Write(buf[:])
			}
		}
		if got := fmt.Sprintf("sha256:%x", h.Sum(nil)); got != congestionPinHash {
			t.Errorf("workers=%d: collective pin %s, want %s", workers, got, congestionPinHash)
		}
	}
}

// TestAggregateLargeLPinned is the many-groups-per-node regime: n=64, every
// node a member of 1024 of 16,384 groups, so each butterfly node holds
// hundreds of pending packets per level. Every group's sum is checked
// against its closed form, and the run's rounds and messages are pinned.
func TestAggregateLargeLPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("large-L aggregate takes ~1 s")
	}
	const (
		n      = 64
		per    = 1024
		groups = 16384
		a, b   = 7919, 104729
	)
	got := make([]map[uint64]uint64, n)
	st, err := ncc.Run(ncc.Config{N: n, Seed: 3}, func(ctx *ncc.Context) {
		s := NewSession(ctx)
		me := ctx.ID()
		items := make([]Agg[uint64], per)
		for i := range items {
			g := uint64((me*a + i*b) % groups)
			items[i] = Agg[uint64]{Group: g, Target: int(g % n), Val: uint64(me*per + i)}
		}
		res := Aggregate(s, items, Sum, groups/n)
		m := make(map[uint64]uint64, len(res))
		for _, gv := range res {
			m[gv.Group] = gv.Val
		}
		got[me] = m
	})
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: b is odd, so i -> i*b is a bijection mod 2^14 and node me
	// belongs to group g exactly when i = (g - me*a) * b^-1 mod 2^14 is
	// below per; it then contributes me*per + i.
	binv := uint64(1)
	for k := 0; k < 14; k++ { // Newton's iteration for the inverse mod 2^14
		binv *= 2 - b*binv
	}
	binv %= groups
	for g := uint64(0); g < groups; g++ {
		var want, members uint64
		for me := uint64(0); me < n; me++ {
			if i := ((g + groups*n*a - me*a) % groups) * binv % groups; i < per {
				want += me*per + i
				members++
			}
		}
		v, ok := got[g%n][g]
		if members == 0 {
			if ok {
				t.Fatalf("group %d has no members but was delivered %d", g, v)
			}
			continue
		}
		if !ok || v != want {
			t.Fatalf("group %d: sum %d (delivered %v), want %d", g, v, ok, want)
		}
	}
	if st.Rounds != 828 || st.Messages != 261885 {
		t.Errorf("large-L aggregate: %d rounds / %d messages, want 828 / 261885", st.Rounds, st.Messages)
	}
}
