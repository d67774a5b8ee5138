package ncc

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestWorkerCountInvariance is the determinism regression test of the
// parallel round engine: a fixed seed must yield bit-for-bit identical Stats
// (rounds, messages, words, and every drop counter) and identical per-node
// deliveries no matter how many workers deliver the rounds. The program is
// deliberately nasty: random fan-out, periodic all-to-one overload bursts
// (receive truncation), bursts that fill the send cap, and an early finisher
// (drops to finished nodes).
func TestWorkerCountInvariance(t *testing.T) {
	const n, rounds = 96, 40
	type digest struct {
		st  Stats
		sum []uint64
	}
	runWith := func(workers int, dropProb float64) digest {
		// Deterministic targeted faults: a different link cut every round.
		cut := func(round int) LinkCut {
			c := LinkCut{To: make([]bool, n), From: make([]bool, n)}
			for v := 0; v < n; v++ {
				c.To[v] = (round+v)%17 == 0
				c.From[v] = (round+2*v)%23 == 0
			}
			return c
		}
		cfg := Config{N: n, Seed: 12345, CapFactor: 2, Workers: workers,
			FaultPlan: lossPlan{p: dropProb, cut: cut}}
		sums := make([]uint64, n)
		st, err := Run(cfg, func(ctx *Context) {
			me := ctx.ID()
			for r := 0; r < rounds; r++ {
				if me == n-1 && r == rounds/2 {
					return
				}
				switch {
				case r%5 == 3:
					if me != 0 {
						ctx.SendWord(0, Word(uint64(r)))
					}
				case r%7 == 5 && me%3 == 0:
					for i := 0; i < ctx.Cap(); i++ {
						ctx.SendWord((me+1+i%(n-1))%n, Word(uint64(i)))
					}
				default:
					for i := 0; i < 1+ctx.Rand().IntN(4); i++ {
						to := ctx.Rand().IntN(n)
						if to != me {
							ctx.SendWord(to, Word(ctx.Rand().Uint64()))
						}
					}
				}
				for _, rc := range ctx.EndRound() {
					w, _ := rc.AsWord()
					sums[me] = sums[me]*31 + uint64(rc.From)*2654435761 + uint64(w)
				}
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.NodeFailures != 0 {
			// Failure isolation would hide a program panic, such as a send
			// over Cap(), behind identical stats.
			t.Fatalf("workers=%d: %d node programs panicked", workers, st.NodeFailures)
		}
		return digest{st: st, sum: sums}
	}

	for _, dropProb := range []float64{0, 0.15} {
		base := runWith(1, dropProb)
		if base.st.Dropped() == 0 {
			t.Fatalf("dropProb=%v: traffic pattern produced no drops; test is vacuous", dropProb)
		}
		for _, workers := range []int{2, 3, 8} {
			got := runWith(workers, dropProb)
			if !reflect.DeepEqual(got.st, base.st) {
				t.Errorf("dropProb=%v: workers=%d stats diverge from workers=1:\n  w1: %+v\n  w%d: %+v",
					dropProb, workers, base.st, workers, got.st)
			}
			for v := range got.sum {
				if got.sum[v] != base.sum[v] {
					t.Errorf("dropProb=%v: workers=%d node %d received different messages", dropProb, workers, v)
					break
				}
			}
		}
	}
}

// TestWorkersMoreThanNodes checks the engine clamps oversized worker counts.
func TestWorkersMoreThanNodes(t *testing.T) {
	st, err := Run(Config{N: 3, Seed: 1, Workers: 64}, func(ctx *Context) {
		ctx.SendWord((ctx.ID()+1)%3, Word(7))
		ctx.EndRound()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 3 || st.Rounds != 1 {
		t.Errorf("stats = %+v, want 3 messages in 1 round", st)
	}
}

// TestNegativeWorkersRejected checks config validation.
func TestNegativeWorkersRejected(t *testing.T) {
	_, err := Run(Config{N: 2, Seed: 1, Workers: -1}, func(ctx *Context) {})
	if err == nil {
		t.Fatal("Workers=-1 accepted")
	}
	// Node ids travel as int32, so N must fit one. The check runs before
	// anything is allocated for the nodes.
	n := math.MaxInt32
	n++
	if _, err := Run(Config{N: n, Seed: 1}, func(ctx *Context) {}); err == nil {
		t.Fatalf("N=%d accepted", n)
	}
}

// TestParallelWorkersDeliverOrdered re-runs the core barrier contract (inbox
// sorted by sender id) through the pooled path.
func TestParallelWorkersDeliverOrdered(t *testing.T) {
	const n = 64
	cfg := Config{N: n, Seed: 2, Workers: 4}
	_, err := Run(cfg, func(ctx *Context) {
		for r := 0; r < 5; r++ {
			for k := 1; k <= 3; k++ {
				ctx.SendWord((ctx.ID()+k)%n, Word(uint64(k)))
			}
			in := ctx.EndRound()
			for i := 1; i < len(in); i++ {
				if in[i].From < in[i-1].From {
					panic("inbox not sorted by sender id")
				}
			}
			if len(in) != 3 {
				panic("expected exactly 3 messages")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanPanicSurfaces checks that a panic inside either FaultPlan
// method aborts the run with an error instead of escaping the coordinator,
// crashing the process, and leaving every node goroutine parked.
func TestFaultPlanPanicSurfaces(t *testing.T) {
	transitions := planFunc(func(round int) ([]Outage, []Revival) {
		if round == 2 {
			panic("plan boom")
		}
		return nil, nil
	})
	loss := lossPlan{cut: func(round int) LinkCut {
		if round == 2 {
			panic("plan boom")
		}
		return LinkCut{}
	}}
	for _, plan := range []FaultPlan{transitions, loss} {
		for _, workers := range []int{1, 4} {
			cfg := Config{N: 8, Seed: 1, Workers: workers, FaultPlan: plan}
			_, err := Run(cfg, func(ctx *Context) {
				for r := 0; r < 10; r++ {
					ctx.SendWord((ctx.ID()+1)%ctx.N(), Word(0))
					ctx.EndRound()
				}
			})
			if err == nil || !strings.Contains(err.Error(), "plan boom") {
				t.Fatalf("%T, workers=%d: err = %v, want the plan panic", plan, workers, err)
			}
		}
	}
}
