package ncc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// awaitLoop is AwaitInput's definition, spelled out with EndRound: the
// reference the engine's sleeping path must match.
func awaitLoop(ctx *Context, deadline int) []Received {
	in := ctx.EndRound()
	for len(in) == 0 && ctx.Round() < deadline {
		in = ctx.EndRound()
	}
	return in
}

// diffPlan is the differential test's fault plan: seeded per-round outages
// (some killing), revivals (some resetting), i.i.d. loss and an occasional
// link cut, plus a kill of the designated sleeper at round sleeperKill.
type diffPlan struct {
	n           int
	seed        uint64
	sleeper     int
	sleeperKill int
}

func (p diffPlan) Transitions(round int) ([]Outage, []Revival) {
	rng := rand.New(rand.NewPCG(p.seed, uint64(round)))
	var downs []Outage
	var ups []Revival
	for k := rng.IntN(3); k > 0; k-- {
		downs = append(downs, Outage{Node: rng.IntN(p.n), Kill: rng.IntN(5) == 0})
	}
	for k := rng.IntN(3); k > 0; k-- {
		ups = append(ups, Revival{Node: rng.IntN(p.n), Reset: rng.IntN(2) == 0})
	}
	if round == p.sleeperKill {
		downs = append(downs, Outage{Node: p.sleeper, Kill: true})
	}
	return downs, ups
}

func (p diffPlan) Loss(round int) (float64, LinkCut) {
	rng := rand.New(rand.NewPCG(p.seed^0xfeed, uint64(round)))
	var cut LinkCut
	if rng.IntN(6) == 0 {
		cut.To = make([]bool, p.n)
		cut.To[rng.IntN(p.n)] = true
	}
	return 0.05, cut
}

// diffEvent is one return of EndRound or AwaitInput as the program saw it.
type diffEvent struct {
	round int
	inbox []string
}

type diffResult struct {
	stats   Stats
	err     string
	events  [][]diffEvent
	samples []RoundSample
}

// runDiffProgram runs one seeded random SPMD program. Every node draws its
// behaviour from ctx.Rand(): random sends of 1..MaxWords words to random
// peers, then a plain EndRound or a wait with a random deadline (none, past,
// near or far), and an early finish now and then. Node sleeper never sends
// and is never sent to, so it sleeps without a deadline until the plan kills
// it. wait is either the engine's AwaitInput or the reference loop.
func runDiffProgram(seed int64, n, workers int, faults bool, wait func(*Context, int) []Received) diffResult {
	const sleeper = 0
	res := diffResult{events: make([][]diffEvent, n)}
	cfg := Config{N: n, Seed: seed, Workers: workers, MaxWords: 4, MaxRounds: 400,
		Probe: func(s RoundSample, _ []ShardTiming) { res.samples = append(res.samples, s) }}
	if faults {
		cfg.FaultPlan = diffPlan{n: n, seed: uint64(seed), sleeper: sleeper, sleeperKill: 7 + int(seed%5)}
	}
	st, err := Run(cfg, func(ctx *Context) {
		me := ctx.ID()
		record := func(in []Received) {
			ev := diffEvent{round: ctx.Round()}
			for _, rc := range in {
				ev.inbox = append(ev.inbox, fmt.Sprint(rc.From, rc.Payload()))
			}
			res.events[me] = append(res.events[me], ev)
		}
		if faults && me == sleeper {
			record(wait(ctx, NoDeadline))
			return
		}
		// Draw from ctx.Rand() every time: a revival with reset reseeds it.
		rng := ctx.Rand
		ws := make([]uint64, 4)
		steps := 10 + rng().IntN(30)
		for step := 0; step < steps; step++ {
			for k := rng().IntN(ctx.Cap() + 1); k > 0; k-- {
				to := rng().IntN(n)
				if to == me || faults && to == sleeper {
					continue
				}
				w := 1 + rng().IntN(len(ws))
				for i := range ws[:w] {
					ws[i] = rng().Uint64()
				}
				ctx.SendWords(to, ws[:w])
			}
			var in []Received
			switch rng().IntN(6) {
			case 0:
				in = ctx.EndRound()
			case 1:
				in = wait(ctx, NoDeadline)
			case 2:
				in = wait(ctx, ctx.Round()-rng().IntN(3)) // at or past: one round
			default:
				in = wait(ctx, ctx.Round()+1+rng().IntN(12))
			}
			record(in)
			if rng().IntN(40) == 0 {
				return // early finish
			}
		}
	})
	res.stats = st
	if err != nil {
		res.err = err.Error()
	}
	return res
}

// TestAwaitInputMatchesEndRoundLoop is a differential test of the sleeping
// path: seeded random programs run once with AwaitInput and once with its
// definition as an EndRound loop, and must give identical Stats, run errors,
// per-node (round, inbox) sequences and RoundSample series at every worker
// count — with and without a fault plan that downs, revives, kills (a
// sleeping node among others), drops and cuts.
func TestAwaitInputMatchesEndRoundLoop(t *testing.T) {
	programs := 12
	if testing.Short() {
		programs = 4
	}
	for seed := int64(1); seed <= int64(programs); seed++ {
		n := []int{3, 17, 64, 130}[seed/2%4]
		faults := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/n=%d/faults=%v", seed, n, faults), func(t *testing.T) {
			want := runDiffProgram(seed, n, 1, faults, awaitLoop)
			t.Logf("%d rounds, %d messages, unfinished %v, error %q", want.stats.Rounds, want.stats.Messages, want.stats.Unfinished, want.err)
			for _, w := range []int{1, 2, 8} {
				got := runDiffProgram(seed, n, w, faults, (*Context).AwaitInput)
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("w=%d: stats differ:\n  await: %+v\n  loop:  %+v", w, got.stats, want.stats)
				}
				if got.err != want.err {
					t.Errorf("w=%d: error %q, reference loop %q", w, got.err, want.err)
				}
				if !reflect.DeepEqual(got.samples, want.samples) {
					t.Errorf("w=%d: RoundSample series differ (%d vs %d samples)", w, len(got.samples), len(want.samples))
				}
				for id := range want.events {
					if !reflect.DeepEqual(got.events[id], want.events[id]) {
						t.Fatalf("w=%d: node %d saw\n  await: %v\n  loop:  %v", w, id, got.events[id], want.events[id])
					}
				}
			}
			if faults && !slices.Contains(want.stats.Unfinished, 0) {
				t.Errorf("the sleeper was not killed: unfinished=%v", want.stats.Unfinished)
			}
		})
	}
}

// TestAwaitInputFastForwardMaxRounds: with every node asleep for good, the
// coordinator runs rounds without a barrier and must still stop at exactly
// MaxRounds.
func TestAwaitInputFastForwardMaxRounds(t *testing.T) {
	for _, w := range []int{1, 3} {
		st, err := Run(Config{N: 12, Seed: 1, Workers: w, MaxRounds: 300}, func(ctx *Context) {
			ctx.AwaitInput(NoDeadline)
			panic("a sleeper with no deadline and no input woke")
		})
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("w=%d: Run returned %v, want ErrMaxRounds", w, err)
		}
		if st.Rounds != 300 {
			t.Errorf("w=%d: %d rounds, want exactly MaxRounds=300", w, st.Rounds)
		}
	}
}

// TestAwaitInputCancelWhileAsleep closes Cancel from the probe while every
// node is asleep: the next fast-forwarded round must see it.
func TestAwaitInputCancelWhileAsleep(t *testing.T) {
	cancel := make(chan struct{})
	st, err := Run(Config{N: 20, Seed: 1, Workers: 2, Cancel: cancel,
		Probe: func(s RoundSample, _ []ShardTiming) {
			if s.Round == 50 {
				close(cancel)
			}
		}}, func(ctx *Context) {
		ctx.AwaitInput(NoDeadline)
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	if st.Rounds != 51 {
		t.Errorf("canceled after %d rounds, want 51 (the round after the close)", st.Rounds)
	}
}

// TestAwaitInputKilledSleeperUnwinds kills a node sleeping without a deadline
// while the others sleep with deadlines too: the victim must unwind at the
// kill, retire with no output and be listed in Unfinished, and the run must
// end cleanly.
func TestAwaitInputKilledSleeperUnwinds(t *testing.T) {
	const n, victim, killAt = 10, 4, 6
	plan := planFunc(func(round int) ([]Outage, []Revival) {
		if round == killAt {
			return []Outage{{Node: victim, Kill: true}}, nil
		}
		return nil, nil
	})
	outs, st, err := Collect(Config{N: n, Seed: 1, Workers: 3, FaultPlan: plan}, func(ctx *Context) int {
		if ctx.ID() == victim {
			ctx.AwaitInput(NoDeadline)
			panic("the killed sleeper returned from AwaitInput")
		}
		ctx.AwaitInput(15)
		return ctx.Round()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(st.Unfinished, []int{victim}) || st.NodesKilled != 1 || st.NodeFailures != 0 {
		t.Errorf("unfinished=%v killed=%d failures=%d, want [%d], 1, 0", st.Unfinished, st.NodesKilled, st.NodeFailures, victim)
	}
	if outs[victim] != 0 || outs[0] != 15 || st.Rounds != 15 {
		t.Errorf("victim output %d, others woke at %d after %d rounds; want 0, 15, 15", outs[victim], outs[0], st.Rounds)
	}
}

// TestAwaitInputProbeSamplesEveryRound: rounds in which every node sleeps
// emit one RoundSample each, in order, like any other round, and shards with
// no node released for a round read zero wait and zero compute.
func TestAwaitInputProbeSamplesEveryRound(t *testing.T) {
	var rounds []int
	var timed int64
	_, err := Run(Config{N: 16, Seed: 1, Workers: 2, Probe: func(s RoundSample, ts []ShardTiming) {
		rounds = append(rounds, s.Round)
		if s.Round > 0 {
			for _, t := range ts {
				timed += t.BarrierWaitNanos + t.ComputeNanos
			}
		}
	}}, func(ctx *Context) {
		ctx.AwaitInput(20)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := make([]int, 20)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(rounds, want) {
		t.Errorf("probe saw rounds %v, want 0..19", rounds)
	}
	if timed != 0 {
		t.Errorf("fast-forwarded rounds report %d ns of barrier wait and compute, want 0", timed)
	}
}
