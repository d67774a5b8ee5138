package comm

import (
	"fmt"
	"sync"
	"testing"

	"ncc/internal/ncc"
)

// Pipelined broadcast of a long word stream: O(count + log n) rounds and
// exact content at every node, including attached ones (n = 2^k + 1).
func TestBroadcastWordsLongStream(t *testing.T) {
	const n = 33 // 32 columns + 1 attached node
	const count = 100
	var mu sync.Mutex
	bad := false
	st := runAll(t, n, 3, func(s *Session) {
		var words []uint64
		if s.Ctx.ID() == 0 {
			words = make([]uint64, count)
			for i := range words {
				words[i] = uint64(i * i)
			}
		}
		got := s.BroadcastWords(0, words, count)
		mu.Lock()
		for i, w := range got {
			if w != uint64(i*i) {
				bad = true
			}
		}
		mu.Unlock()
	})
	if bad {
		t.Fatal("broadcast corrupted words")
	}
	// O(count + log n): generous constant, but far below count * log n.
	if st.Rounds > 3*count {
		t.Errorf("pipelined broadcast took %d rounds for %d words", st.Rounds, count)
	}
	if st.Dropped() != 0 {
		t.Errorf("dropped %d", st.Dropped())
	}
}

// Aggregation whose targets are attached nodes (ids above the last butterfly
// column) must deliver exactly like any other.
func TestAggregateToAttachedTargets(t *testing.T) {
	const n = 35 // columns 0..31, attached 32..34
	var mu sync.Mutex
	got := map[uint64]uint64{}
	runAll(t, n, 5, func(s *Session) {
		target := 32 + int(s.Ctx.ID())%3
		items := []Agg[uint64]{{Group: uint64(target), Target: target, Val: 1}}
		res := Aggregate(s, items, Sum, 3)
		mu.Lock()
		for _, gv := range res {
			if s.Ctx.ID() < 32 {
				panic("result delivered to a non-target")
			}
			got[gv.Group] += gv.Val
		}
		mu.Unlock()
	})
	var total uint64
	for _, v := range got {
		total += v
	}
	if total != n {
		t.Fatalf("attached targets received %d contributions, want %d", total, n)
	}
}

// Multicast groups sourced by attached nodes.
func TestMulticastFromAttachedSource(t *testing.T) {
	const n = 34
	const src = 33
	var mu sync.Mutex
	delivered := 0
	runAll(t, n, 7, func(s *Session) {
		var items []TreeItem
		if s.Ctx.ID() < 5 { // five members
			items = append(items, TreeItem{Group: 1, Origin: s.Ctx.ID()})
		}
		trees := s.SetupTrees(items)
		got := Multicast(s, trees, s.Ctx.ID() == src, 1, uint64(4242), U64Wire{}, 1)
		mu.Lock()
		for _, gv := range got {
			if gv.Val == 4242 && s.Ctx.ID() < 5 {
				delivered++
			}
		}
		mu.Unlock()
	})
	if delivered != 5 {
		t.Fatalf("attached-source multicast reached %d members, want 5", delivered)
	}
}

// Tiny cliques: the full primitive stack must work at n = 2 and n = 3.
func TestPrimitivesTinyCliques(t *testing.T) {
	for _, n := range []int{2, 3} {
		st := runAll(t, n, 11, func(s *Session) {
			me := s.Ctx.ID()
			sum, _ := AggregateAndBroadcast(s, uint64(1), true, Sum)
			if int(sum) != n {
				panic("bad sum")
			}
			trees := s.SetupTrees([]TreeItem{{Group: uint64((me + 1) % n), Origin: me}})
			got := Multicast(s, trees, true, uint64(me), uint64(me), U64Wire{}, 1)
			if len(got) != 1 || int(got[0].Val) != (me+1)%n {
				panic("bad multicast at tiny n")
			}
		})
		if st.Dropped() != 0 {
			t.Errorf("n=%d dropped %d", n, st.Dropped())
		}
	}
}

// Words accounting: the runtime must count payload words of transmitted
// messages.
func TestWordsAccounting(t *testing.T) {
	cfg := ncc.Config{N: 2, Seed: 1}
	st, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		if ctx.ID() == 0 {
			ctx.SendWords2(1, ncc.Words2{1, 2})       // 2 words
			ctx.SendWord(1, 7)                        // 1 word
			ctx.SendWords(1, []uint64{1, 2, 3, 4, 5}) // 5 words, arena path
		}
		ctx.EndRound()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Words != 8 {
		t.Errorf("words = %d, want 8", st.Words)
	}
}

// MulticastMulti: one node sources many groups at once (the paper's
// post-Theorem-2.5 extension).
func TestMulticastMultiSourcer(t *testing.T) {
	const n = 24
	const groups = 10 // all sourced by node 0
	var mu sync.Mutex
	received := map[int]map[uint64]uint64{}
	st := runAll(t, n, 13, func(s *Session) {
		me := s.Ctx.ID()
		// Node g+1 is the (single) member of group g.
		var items []TreeItem
		if me >= 1 && me <= groups {
			items = append(items, TreeItem{Group: uint64(me - 1), Origin: me})
		}
		trees := s.SetupTrees(items)
		var packets []SourcePacket[uint64]
		if me == 0 {
			for g := 0; g < groups; g++ {
				packets = append(packets, SourcePacket[uint64]{Group: uint64(g), Val: uint64(9000 + g)})
			}
		}
		got := MulticastMulti(s, trees, packets, U64Wire{}, 1)
		m := map[uint64]uint64{}
		for _, gv := range got {
			m[gv.Group] = gv.Val
		}
		mu.Lock()
		received[me] = m
		mu.Unlock()
	})
	for g := 0; g < groups; g++ {
		member := g + 1
		v, ok := received[member][uint64(g)]
		if !ok || v != uint64(9000+g) {
			t.Errorf("member %d of group %d got %d,%v", member, g, v, ok)
		}
	}
	if st.Dropped() != 0 {
		t.Errorf("dropped %d", st.Dropped())
	}
}

// TestBackToBackCollectivesQueuedInput runs collectives back to back so that
// input reaches a wait loop before the loop starts. Nodes hold different
// numbers of Aggregate items, so they leave the inject phase at different
// rounds, and the Synchronize contributions of early nodes are already
// queued at late ones. Nodes enter a BroadcastWords at staggered rounds, so
// words pipelined from the root are already queued at late nodes, and at
// the latest ones every word is. A
// wait that slept on such input instead of consuming it would stall to
// MaxRounds. Rounds and messages are pinned to the values the engine gave
// before nodes could sleep through empty rounds.
func TestBackToBackCollectivesQueuedInput(t *testing.T) {
	const n, groups, count = 64, 8, 20
	items := func(node, call int) []Agg[uint64] {
		it := make([]Agg[uint64], (node*5+call)%23)
		for i := range it {
			g := (node + i) % groups
			it[i] = Agg[uint64]{Group: uint64(g), Target: g, Val: 1}
		}
		return it
	}
	var mu sync.Mutex
	var bad []string
	fail := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	st := runAll(t, n, 9, func(s *Session) {
		me := s.Ctx.ID()
		for call := 0; call < 3; call++ {
			want := uint64(0)
			for u := 0; u < n; u++ {
				for _, it := range items(u, call) {
					if it.Target == me {
						want += it.Val
					}
				}
			}
			res := Aggregate(s, items(me, call), Sum, 1)
			got := uint64(0)
			for _, gv := range res {
				got += gv.Val
			}
			if got != want {
				fail("aggregate %d: node %d got %d, want %d", call, me, got, want)
			}
		}
		for k, src := range []int{37, 0} {
			// The second broadcast starts at staggered rounds; odd nodes are
			// leaves of the reduction tree (they forward nothing) and start
			// only after the whole stream has reached them.
			delay := k * (me % 3)
			if k == 1 && me%2 == 1 {
				delay = count + 8
			}
			for d := 0; d < delay; d++ {
				s.Advance()
			}
			var words []uint64
			if me == src {
				words = make([]uint64, count)
				for i := range words {
					words[i] = uint64(i*i + src)
				}
			}
			for i, w := range s.BroadcastWords(src, words, count) {
				if w != uint64(i*i+src) {
					fail("broadcast from %d: node %d word %d = %d", src, me, i, w)
					break
				}
			}
		}
	})
	if len(bad) > 0 {
		t.Fatalf("%d wrong results, first: %s", len(bad), bad[0])
	}
	if st.Rounds != 241 || st.Messages != 8958 {
		t.Errorf("rounds=%d messages=%d, want the pinned %d and %d", st.Rounds, st.Messages, 241, 8958)
	}
}
