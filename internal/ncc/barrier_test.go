package ncc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestAbortDuringBarrier kills one node mid-round while every other node is
// parked at the sharded barrier: the panic must surface as the run error and
// every parked goroutine must be released (a deadlock here fails the test by
// timeout). Exercised across worker counts so both the serial and pooled
// delivery paths unwind.
func TestAbortDuringBarrier(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			_, err := Run(Config{N: 64, Seed: 9, Workers: workers}, func(ctx *Context) {
				for r := 0; ; r++ {
					if ctx.ID() == 5 && r == 3 {
						panic("mid-round boom")
					}
					ctx.SendWord((ctx.ID()+1)%ctx.N(), Word(uint64(r)))
					ctx.EndRound()
				}
			})
			if err == nil || !strings.Contains(err.Error(), "mid-round boom") {
				t.Fatalf("want node panic to surface, got %v", err)
			}
		})
	}
}

// TestNodeFinishesAtBarrier retires nodes one per round (node i returns after
// i rounds), driving the live-count and per-shard countdown bookkeeping
// through every round, and checks the stats are identical across worker
// counts (the finish path must not perturb determinism).
func TestNodeFinishesAtBarrier(t *testing.T) {
	const n = 48
	runWith := func(workers int) Stats {
		st, err := Run(Config{N: n, Seed: 4, Workers: workers}, func(ctx *Context) {
			for r := 0; r < ctx.ID(); r++ {
				ctx.SendWord((ctx.ID()+1)%ctx.N(), Word(uint64(r)))
				ctx.EndRound()
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return st
	}
	base := runWith(1)
	if base.Rounds != n-1 {
		t.Errorf("rounds = %d, want %d (node n-1 runs n-1 rounds)", base.Rounds, n-1)
	}
	if base.DroppedToFinished == 0 {
		t.Error("expected messages to already-finished nodes to be dropped")
	}
	for _, workers := range []int{2, 5, 8} {
		if got := runWith(workers); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d stats diverge:\n  w1: %+v\n  w%d: %+v", workers, base, workers, got)
		}
	}
}

// TestImmediateFinishAll covers the degenerate barrier: every program returns
// without a single EndRound, so the first countdown completes purely through
// the finish path.
func TestImmediateFinishAll(t *testing.T) {
	st, err := Run(Config{N: 1000, Seed: 1, Workers: 4}, func(ctx *Context) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.Messages != 0 {
		t.Errorf("stats = %+v, want empty run", st)
	}
}

// TestBarrierLargeNSmoke pushes N=4096 with mixed traffic, staggered
// finishes, and pooled delivery through the sharded countdown and the
// per-node token release. Run under -race in CI, it is the memory-model
// check on the barrier: any missing happens-before edge between node
// outboxes, delivery workers, and inbox reads shows up here.
func TestBarrierLargeNSmoke(t *testing.T) {
	const n, rounds = 4096, 6
	st, err := Run(Config{N: n, Seed: 77, Workers: 8}, func(ctx *Context) {
		me := ctx.ID()
		for r := 0; r < rounds; r++ {
			if me%97 == r { // a sprinkle of early finishers, one shard at a time
				return
			}
			for j := 0; j < 1+me%3; j++ {
				to := ctx.Rand().IntN(n)
				if to != me {
					ctx.SendWord(to, Word(uint64(r)))
				}
			}
			in := ctx.EndRound()
			for i := 1; i < len(in); i++ {
				if in[i].From < in[i-1].From {
					panic("inbox not sorted by sender id")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", st.Rounds, rounds)
	}
	if st.Messages == 0 {
		t.Error("smoke run transmitted no messages")
	}
}

// TestSendWordEquivalence checks that SendWord and SendWords2 are observably
// identical to sending the same payloads as slices through SendWords.
func TestSendWordEquivalence(t *testing.T) {
	type digest struct {
		st  Stats
		sum uint64
	}
	runWith := func(inline bool) digest {
		var d digest
		sums := make([]uint64, 32)
		st, err := Run(Config{N: 32, Seed: 6, CapFactor: 1}, func(ctx *Context) {
			me := ctx.ID()
			for r := 0; r < 8; r++ {
				to := (me + 1 + r) % ctx.N()
				if to != me {
					if inline {
						ctx.SendWord(to, Word(uint64(me*100+r)))
						ctx.SendWords2(to, Words2{uint64(me), uint64(r)})
					} else {
						ctx.SendWords(to, []uint64{uint64(me*100 + r)})
						ctx.SendWords(to, []uint64{uint64(me), uint64(r)})
					}
				}
				for _, rc := range ctx.EndRound() {
					if w, ok := rc.AsWord(); ok {
						sums[me] = sums[me]*31 + uint64(w)
					}
					if w2, ok := rc.AsWords2(); ok {
						sums[me] = sums[me]*37 + w2[0]<<8 + w2[1]
					}
					// SendWords carries one and two words inline too.
					if _, ok := ctx.Words(&rc); ok {
						panic("a one- or two-word payload arrived in the word arena")
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		d.st = st
		for _, s := range sums {
			d.sum = d.sum*1099511628211 + s
		}
		return d
	}
	if a, b := runWith(true), runWith(false); !reflect.DeepEqual(a, b) {
		t.Errorf("SendWord/SendWords2 and SendWords diverge:\n  SendWord/SendWords2: %+v\n  SendWords:  %+v", a, b)
	}
}
