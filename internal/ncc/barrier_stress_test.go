package ncc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The round's edges: a node's coroutine yields once per round it runs, the
// resume phase resumes each released node once, on its shard's worker or on
// the coordinator, a node sleeping in AwaitInput stays suspended across
// rounds, and an abort stops every coroutine. These tests drive each way a
// run can end — node panic, fault-plan kills and outages with early
// finishes, cancellation — at random rounds, with some nodes asleep when it
// lands, across worker counts and up to n=4096, and require that Run returns
// and that no goroutine of the run is left behind (a coroutine an abort did
// not stop would show up as a leaked goroutine, once the spare's suspended
// coroutines are dropped). CI runs them under -race.

var stressWorkers = []int{1, 2, 8}

// stressSizes keeps one size per shard regime: fewer nodes than workers,
// a few nodes per shard, and the large case.
var stressSizes = []int{5, 300, 4096}

// runBounded runs program under cfg with a deadline on Run itself, then drops
// the spare, stopping the coroutines suspended in it, and waits for the
// goroutine count to fall back to where it was before the run, with no spare
// either. What is left to catch is a coroutine left suspended in a program
// that Run's abort did not stop, a delivery worker, or a coroutine that does
// not end when it is stopped.
func runBounded(t *testing.T, cfg Config, program func(*Context)) (Stats, error) {
	t.Helper()
	ReleaseSpare()
	before := runtime.NumGoroutine()
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := Run(cfg, program)
		done <- result{st, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("n=%d workers=%d: Run did not return (deadlock)", cfg.N, cfg.Workers)
	}
	ReleaseSpare()
	if err := settleGoroutines(before); err != nil {
		t.Fatalf("n=%d workers=%d: %v: a node was left suspended", cfg.N, cfg.Workers, err)
	}
	return res.st, res.err
}

// settleGoroutines waits up to 10 s for the goroutine count to fall to
// before, and otherwise reports both counts.
func settleGoroutines(before int) error {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines alive after the run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// TestBarrierStressNodePanic aborts a plan-less run by panicking one node at
// a random round while some nodes have already finished and the rest are
// suspended, not yet resumed in the round, or asleep: every
// fourth node sleeps without a deadline and is never sent to, and the next
// ones sleep with short deadlines.
func TestBarrierStressNodePanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range stressSizes {
		for _, w := range stressWorkers {
			victim, at := rng.IntN(n), 1+rng.IntN(8)
			t.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(t *testing.T) {
				_, err := runBounded(t, Config{N: n, Seed: 5, Workers: w}, func(ctx *Context) {
					me := ctx.ID()
					for r := 0; r < 64; r++ {
						if me == victim && r == at {
							panic("stress boom")
						}
						if me != victim && me%11 == r {
							return // early finisher
						}
						if me != victim && me%4 == 0 {
							ctx.AwaitInput(NoDeadline) // asleep until the abort
							continue
						}
						if to := (me + 1) % n; to%4 != 0 || to == victim {
							ctx.SendWord(to, Word(r))
						}
						if me%4 == 1 {
							ctx.AwaitInput(ctx.Round() + 1 + me%5)
						} else {
							ctx.EndRound()
						}
					}
				})
				if err == nil || !strings.Contains(err.Error(), "stress boom") {
					t.Fatalf("want the node panic as the run error, got %v", err)
				}
			})
		}
	}
}

// stressPlan is a seeded schedule of outages, kills and revivals: each round
// a few random nodes go down (one in four of them killed), and the plain
// outages of two rounds earlier come back, every other one with a reset.
func stressPlan(n int, seed uint64) planFunc {
	downsAt := func(round int) []Outage {
		rng := rand.New(rand.NewPCG(seed, uint64(round)))
		downs := make([]Outage, 1+n/64)
		for k := range downs {
			downs[k] = Outage{Node: rng.IntN(n), Kill: rng.IntN(4) == 0}
		}
		return downs
	}
	return func(round int) ([]Outage, []Revival) {
		var ups []Revival
		if round >= 2 {
			for k, o := range downsAt(round - 2) {
				if !o.Kill {
					ups = append(ups, Revival{Node: o.Node, Reset: k%2 == 0})
				}
			}
		}
		return downsAt(round), ups
	}
}

// TestBarrierStressFaultPlan runs kills, outages, revivals, early finishes
// and isolated node panics under a fault plan to completion, and requires
// identical Stats at every worker count. Every third node sleeps through up
// to three rounds at a time, so faults also land on sleepers.
func TestBarrierStressFaultPlan(t *testing.T) {
	const rounds = 12
	for _, n := range stressSizes {
		var base Stats
		for i, w := range stressWorkers {
			t.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(t *testing.T) {
				st, err := runBounded(t, Config{N: n, Seed: 3, Workers: w, FaultPlan: stressPlan(n, 9)}, func(ctx *Context) {
					me := ctx.ID()
					for r := 0; r < rounds; r++ {
						switch {
						case me%29 == r:
							return // early finisher
						case me%31 == r+1:
							panic("isolated crash") // retired as a node failure
						}
						if to := ctx.Rand().IntN(n); to != me {
							ctx.SendWord(to, Word(r))
						}
						if me%3 == 0 {
							ctx.AwaitInput(ctx.Round() + 1 + ctx.Rand().IntN(4))
						} else {
							ctx.EndRound()
						}
					}
				})
				if err != nil {
					t.Fatalf("faulted run failed: %v", err)
				}
				if n >= 300 && (st.NodesKilled == 0 || st.NodesDowned == 0 || st.NodesRevived == 0) {
					t.Errorf("plan applied no faults: %+v", st)
				}
				if i == 0 {
					base = st
				} else if !reflect.DeepEqual(st, base) {
					t.Errorf("w=%d stats diverge from w=%d:\n  %+v\n  %+v", w, stressWorkers[0], st, base)
				}
			})
		}
	}
}

// TestBarrierStressCancel closes Cancel from inside a node program at a random
// round, racing the barrier, while every fourth node sleeps without a
// deadline, and requires ErrCanceled.
func TestBarrierStressCancel(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range stressSizes {
		for _, w := range stressWorkers {
			at := rng.IntN(8)
			t.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(t *testing.T) {
				cancel := make(chan struct{})
				var once sync.Once
				_, err := runBounded(t, Config{N: n, Seed: 2, Workers: w, Cancel: cancel}, func(ctx *Context) {
					me := ctx.ID()
					for r := 0; ; r++ {
						if me == n-1 && r == at {
							once.Do(func() { close(cancel) })
						}
						if me != n-1 && me%13 == r+1 {
							return // early finisher
						}
						if me != n-1 && me%4 == 0 {
							ctx.AwaitInput(NoDeadline) // asleep until the cancel
							continue
						}
						if to := (me + 1) % n; to%4 != 0 || to == n-1 {
							ctx.SendWord(to, Word(r))
						}
						ctx.EndRound()
					}
				})
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("Run returned %v, want ErrCanceled", err)
				}
			})
		}
	}
}
