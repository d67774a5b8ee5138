package comm

import (
	"sync"
	"testing"

	"ncc/internal/hashing"
	"ncc/internal/ncc"
)

// runAll executes program (which receives a ready Session) on an n-node
// clique and returns the stats; a send over capacity fails the run.
func runAll(t *testing.T, n int, seed int64, program func(*Session)) ncc.Stats {
	t.Helper()
	cfg := ncc.Config{N: n, Seed: seed}
	st, err := ncc.Run(cfg, func(ctx *ncc.Context) {
		program(NewSession(ctx))
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return st
}

func TestSessionSetupNoDrops(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 13, 16, 33, 64, 100} {
		st := runAll(t, n, 7, func(s *Session) {})
		if st.Dropped() != 0 {
			t.Errorf("n=%d: %d messages dropped during session setup", n, st.Dropped())
		}
	}
}

func TestSynchronizeAlignsRounds(t *testing.T) {
	for _, n := range []int{2, 3, 7, 16, 40} {
		var mu sync.Mutex
		rounds := map[int]bool{}
		runAll(t, n, 3, func(s *Session) {
			// Desynchronize on purpose.
			for i := 0; i < s.Ctx.ID()%5; i++ {
				s.Advance()
			}
			s.Synchronize()
			mu.Lock()
			rounds[s.Ctx.Round()] = true
			mu.Unlock()
		})
		if len(rounds) != 1 {
			t.Errorf("n=%d: Synchronize returned at %d distinct rounds", n, len(rounds))
		}
	}
}

func TestSynchronizeRepeated(t *testing.T) {
	var mu sync.Mutex
	rounds := map[int]bool{}
	runAll(t, 11, 9, func(s *Session) {
		for k := 0; k < 4; k++ {
			for i := 0; i < (s.Ctx.ID()*7+k)%4; i++ {
				s.Advance()
			}
			s.Synchronize()
		}
		mu.Lock()
		rounds[s.Ctx.Round()] = true
		mu.Unlock()
	})
	if len(rounds) != 1 {
		t.Errorf("repeated Synchronize desynced: %d distinct rounds", len(rounds))
	}
}

func TestAggregateAndBroadcastSum(t *testing.T) {
	for _, n := range []int{2, 3, 6, 16, 31, 64} {
		want := uint64(n * (n - 1) / 2)
		got := make([]uint64, n)
		runAll(t, n, 5, func(s *Session) {
			v, ok := AggregateAndBroadcast(s, uint64(s.Ctx.ID()), true, Sum)
			if !ok {
				panic("no aggregate")
			}
			got[s.Ctx.ID()] = v
		})
		for id, g := range got {
			if g != want {
				t.Fatalf("n=%d node %d: sum=%d want %d", n, id, g, want)
			}
		}
	}
}

func TestAggregateAndBroadcastPartial(t *testing.T) {
	// Only odd nodes contribute; everyone must learn the max odd id.
	const n = 21
	got := make([]uint64, n)
	runAll(t, n, 5, func(s *Session) {
		id := uint64(s.Ctx.ID())
		v, ok := AggregateAndBroadcast(s, id, id%2 == 1, Max)
		if !ok {
			panic("no aggregate")
		}
		got[s.Ctx.ID()] = v
	})
	for id, g := range got {
		if g != 19 {
			t.Fatalf("node %d: max=%d want 19", id, g)
		}
	}
}

func TestAggregateAndBroadcastNobody(t *testing.T) {
	// Distinct per-node inputs with has=false everywhere: the result must be
	// the uniform (zero, false) on every node — in particular the butterfly
	// root must not leak its own input value back out.
	oks := make([]bool, 9)
	vals := make([]uint64, 9)
	runAll(t, 9, 5, func(s *Session) {
		v, ok := AggregateAndBroadcast(s, uint64(s.Ctx.ID())+100, false, Max)
		oks[s.Ctx.ID()] = ok
		vals[s.Ctx.ID()] = v
	})
	for id, ok := range oks {
		if ok {
			t.Fatalf("node %d: got ok for empty aggregation", id)
		}
		if vals[id] != 0 {
			t.Fatalf("node %d: empty aggregation returned %d, want uniform 0", id, vals[id])
		}
	}
}

func TestAggregateAndBroadcastRounds(t *testing.T) {
	// Theorem 2.2: O(log n) rounds. Check rounds grow like log n, not n.
	prev := 0
	for _, n := range []int{8, 64, 512} {
		var st ncc.Stats
		st = runAll(t, n, 1, func(s *Session) {
			AggregateAndBroadcast(s, uint64(1), true, Sum)
		})
		logn := ncc.CeilLog2(n)
		if st.Rounds > 20*logn {
			t.Errorf("n=%d: A&B(+setup) took %d rounds, want O(log n)=~%d", n, st.Rounds, logn)
		}
		if prev != 0 && st.Rounds > prev*4 {
			t.Errorf("rounds grew superlogarithmically: %d -> %d", prev, st.Rounds)
		}
		prev = st.Rounds
	}
}

func TestAnyTrueAndSumCountAndMaxAll(t *testing.T) {
	const n = 17
	runAll(t, n, 2, func(s *Session) {
		if s.AnyTrue(false) {
			panic("AnyTrue(false everywhere) = true")
		}
		if !s.AnyTrue(s.Ctx.ID() == 13) {
			panic("AnyTrue missed the true node")
		}
		sum, count := s.SumCount(uint64(s.Ctx.ID()), s.Ctx.ID() < 5)
		if sum != 0+1+2+3+4 || count != 5 {
			panic("SumCount wrong")
		}
		m, ok := s.MaxAll(uint64(s.Ctx.ID()*2), true)
		if !ok || m != uint64((n-1)*2) {
			panic("MaxAll wrong")
		}
	})
}

func TestBroadcastWordsFromZero(t *testing.T) {
	for _, n := range []int{2, 3, 8, 19, 64} {
		const count = 10
		got := make([][]uint64, n)
		runAll(t, n, 11, func(s *Session) {
			var words []uint64
			if s.Ctx.ID() == 0 {
				words = make([]uint64, count)
				for i := range words {
					words[i] = uint64(1000 + i)
				}
			}
			got[s.Ctx.ID()] = s.BroadcastWords(0, words, count)
		})
		for id, ws := range got {
			for i, w := range ws {
				if w != uint64(1000+i) {
					t.Fatalf("n=%d node %d word %d = %d", n, id, i, w)
				}
			}
		}
	}
}

func TestBroadcastWordsFromNonRoot(t *testing.T) {
	// Sources covering: inner emulator column, attached node.
	for _, src := range []int{3, 9} {
		const n, count = 11, 7 // cols=8; node 9 is attached to column 1
		got := make([][]uint64, n)
		runAll(t, n, 13, func(s *Session) {
			var words []uint64
			if s.Ctx.ID() == src {
				words = []uint64{7, 6, 5, 4, 3, 2, 1}
			}
			got[s.Ctx.ID()] = s.BroadcastWords(src, words, count)
		})
		want := []uint64{7, 6, 5, 4, 3, 2, 1}
		for id, ws := range got {
			for i, w := range ws {
				if w != want[i] {
					t.Fatalf("src=%d node %d word %d = %d want %d", src, id, i, w, want[i])
				}
			}
		}
	}
}

func TestSessionsShareSeed(t *testing.T) {
	const n = 16
	hashes := make([]uint64, n)
	runAll(t, n, 21, func(s *Session) {
		var f *hashing.Family
		s.pooledFamily(&f, 1, 42)
		hashes[s.Ctx.ID()] = f.Hash(12345)
	})
	for id := 1; id < n; id++ {
		if hashes[id] != hashes[0] {
			t.Fatalf("node %d derived a different shared hash", id)
		}
	}
}

func TestDirectMessages(t *testing.T) {
	const n = 8
	gotFrom := make([]int, n)
	runAll(t, n, 2, func(s *Session) {
		peer := s.Ctx.ID() ^ 1
		s.Ctx.SendWord(peer, ncc.Word(99))
		s.Advance()
		s.Synchronize()
		count := 0
		s.DrainDirect(func(from ncc.NodeID, ws []uint64) {
			count++
			if len(ws) != 1 || ws[0] != 99 {
				panic("direct message lost or corrupted")
			}
			gotFrom[s.Ctx.ID()] = from
		})
		if count != 1 {
			panic("direct message count wrong")
		}
	})
	for id, from := range gotFrom {
		if from != id^1 {
			t.Fatalf("node %d got direct message from %d", id, from)
		}
	}
}
