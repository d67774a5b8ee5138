package ncc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"
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

// runRecorded runs program under cfg with a probe attached and records every
// return of EndRound or AwaitInput as the program passes it to record. A
// watchdog cancels a run that hangs, so a node the engine never wakes fails
// the comparison instead of the test binary.
func runRecorded(cfg Config, program func(ctx *Context, record func([]Received))) diffResult {
	res := diffResult{events: make([][]diffEvent, cfg.N)}
	cfg.Probe = func(s RoundSample, _ []ShardTiming) { res.samples = append(res.samples, s) }
	cancel := make(chan struct{})
	watchdog := time.AfterFunc(30*time.Second, func() { close(cancel) })
	defer watchdog.Stop()
	cfg.Cancel = cancel
	st, err := Run(cfg, func(ctx *Context) {
		me := ctx.ID()
		program(ctx, func(in []Received) {
			ev := diffEvent{round: ctx.Round()}
			for i := range in {
				ev.inbox = append(ev.inbox, fmt.Sprint(in[i].From, msgWords(ctx, &in[i])))
			}
			res.events[me] = append(res.events[me], ev)
		})
	})
	res.stats = st
	if err != nil {
		res.err = err.Error()
	}
	return res
}

// diffResults describes the first difference between got and want, or
// returns "" when the runs agree.
func diffResults(got, want diffResult) string {
	if !reflect.DeepEqual(got.stats, want.stats) {
		return fmt.Sprintf("stats differ:\n  got:  %+v\n  want: %+v", got.stats, want.stats)
	}
	if got.err != want.err {
		return fmt.Sprintf("error %q, want %q", got.err, want.err)
	}
	if !reflect.DeepEqual(got.samples, want.samples) {
		return fmt.Sprintf("RoundSample series differ (%d vs %d samples)", len(got.samples), len(want.samples))
	}
	for id := range want.events {
		if !reflect.DeepEqual(got.events[id], want.events[id]) {
			return fmt.Sprintf("node %d saw\n  got:  %v\n  want: %v", id, got.events[id], want.events[id])
		}
	}
	return ""
}

// runDiffProgram runs one seeded random SPMD program. Every node draws its
// behaviour from ctx.Rand(): random sends of 1..MaxWords words to random
// peers, then a plain EndRound or a wait with a random deadline (none, past,
// near or far), and an early finish now and then. Node sleeper never sends
// and is never sent to, so it sleeps without a deadline until the plan kills
// it. wait is either the engine's AwaitInput or the reference loop.
func runDiffProgram(seed int64, n, workers int, faults bool, wait func(*Context, int) []Received) diffResult {
	const sleeper = 0
	cfg := Config{N: n, Seed: seed, Workers: workers, MaxWords: 4, MaxRounds: 400}
	if faults {
		cfg.FaultPlan = diffPlan{n: n, seed: uint64(seed), sleeper: sleeper, sleeperKill: 7 + int(seed%5)}
	}
	return runRecorded(cfg, func(ctx *Context, record func([]Received)) {
		me := ctx.ID()
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

// FuzzAwaitInputDifferential widens TestAwaitInputMatchesEndRoundLoop to any
// (seed, n in 3..160, workers in {1, 2, 8}, faults): the engine's AwaitInput
// must match its EndRound-loop definition, and a run at the drawn worker
// count must match a serial one. The seed corpus is the test's 12 programs
// at 2 and 8 workers.
//
//	go test ./internal/ncc -run '^$' -fuzz '^FuzzAwaitInputDifferential$' -fuzztime 10s
func FuzzAwaitInputDifferential(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		n := []int{3, 17, 64, 130}[seed/2%4]
		for _, w := range []uint8{1, 2} { // workers 2 and 8
			f.Add(seed, uint8(n-3), w, seed%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, nIdx, wIdx uint8, faults bool) {
		n := 3 + int(nIdx)%158
		w := []int{1, 2, 8}[wIdx%3]
		want := runDiffProgram(seed, n, 1, faults, awaitLoop)
		if d := diffResults(runDiffProgram(seed, n, 1, faults, (*Context).AwaitInput), want); d != "" {
			t.Fatalf("AwaitInput at w=1 vs the EndRound loop: %s", d)
		}
		if w > 1 {
			if d := diffResults(runDiffProgram(seed, n, w, faults, (*Context).AwaitInput), want); d != "" {
				t.Fatalf("AwaitInput at w=%d vs w=1: %s", w, d)
			}
		}
	})
}

// TestAwaitInputStaleDeadlines covers the deadline timers a sleeper leaves
// behind. Node 1 sleeps with a finite deadline and then wakes early, finishes,
// is killed, goes through an outage, or is revived with reset while its timer
// is pending, or wakes early so often that its shard's heap is compacted;
// node 0 sends to it at the listed rounds, and nodes 2..7 sleep with timers
// of their own. Every case must match the EndRound-loop reference
// round for round at 1, 2 and 8 workers, and node 1's waits must return at
// the listed rounds: a stale timer must neither wake the node at its old
// deadline nor hang the run waiting for a node that is gone.
func TestAwaitInputStaleDeadlines(t *testing.T) {
	const n, end = 8, 250
	type waitFunc = func(*Context, int) []Received
	outage := func(down, up int, reset bool, kill bool) FaultPlan {
		return planFunc(func(round int) ([]Outage, []Revival) {
			switch round {
			case down:
				return []Outage{{Node: 1, Kill: kill}}, nil
			case up:
				return nil, []Revival{{Node: 1, Reset: reset}}
			}
			return nil, nil
		})
	}
	type staleCase struct {
		name    string
		plan    FaultPlan
		sendAt  []int // rounds at which node 0 sends node 1 a message
		sleeper func(ctx *Context, wait waitFunc, record func([]Received))
		wake    []int // rounds at which node 1's waits return
	}
	cases := []staleCase{
		{"early wake, later deadline", nil, []int{5},
			func(ctx *Context, wait waitFunc, record func([]Received)) {
				record(wait(ctx, 20))
				record(wait(ctx, 30))
			}, []int{6, 30}},
		{"early wake, earlier deadline", nil, []int{5, 40},
			func(ctx *Context, wait waitFunc, record func([]Received)) {
				record(wait(ctx, 30))
				record(wait(ctx, 12))
				record(wait(ctx, NoDeadline))
			}, []int{6, 12, 41}},
		{"finish with a pending timer", nil, []int{5},
			func(ctx *Context, wait waitFunc, record func([]Received)) {
				record(wait(ctx, 20))
			}, []int{6}},
		{"killed with a pending timer", outage(8, -1, false, true), nil,
			func(ctx *Context, wait waitFunc, record func([]Received)) {
				record(wait(ctx, 20))
				panic("the killed sleeper returned from its wait")
			}, nil},
		{"outage over the deadline", outage(5, 25, false, false), []int{12},
			func(ctx *Context, wait waitFunc, record func([]Received)) {
				record(wait(ctx, 20))
			}, []int{20}},
		{"revived with reset before the deadline", outage(5, 10, true, false), nil,
			func(ctx *Context, wait waitFunc, record func([]Received)) {
				record(wait(ctx, 20))
				ctx.SendWord(0, Word(ctx.Rand().Uint64())) // the reseeded stream
				record(ctx.EndRound())
			}, []int{20, 21}},
	}
	// A sleeper woken by a message every other round for 200 rounds leaves a
	// stale timer behind each time, more than the heap keeps before compacting;
	// the compaction must keep the bystanders' live timers.
	flood := staleCase{name: "100 early wakes, heap compacted", sleeper: func(ctx *Context, wait waitFunc, record func([]Received)) {
		for ctx.Round() < 210 {
			record(wait(ctx, ctx.Round()+200))
		}
	}}
	for r := 5; r < 205; r += 2 {
		flood.sendAt = append(flood.sendAt, r)
		flood.wake = append(flood.wake, r+1)
	}
	flood.wake = append(flood.wake, 404)
	cases = append(cases, flood)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int, wait waitFunc) diffResult {
				cfg := Config{N: n, Seed: 3, Workers: workers, MaxRounds: 500, FaultPlan: tc.plan}
				return runRecorded(cfg, func(ctx *Context, record func([]Received)) {
					switch ctx.ID() {
					case 0:
						for _, at := range tc.sendAt {
							for ctx.Round() < at {
								record(wait(ctx, at))
							}
							ctx.SendWord(1, Word(uint64(at)))
							record(ctx.EndRound())
						}
						for ctx.Round() < end {
							record(wait(ctx, end))
						}
					case 1:
						tc.sleeper(ctx, wait, record)
					default:
						record(wait(ctx, 3+ctx.ID()))
						record(wait(ctx, end))
					}
				})
			}
			want := run(1, awaitLoop)
			if want.err != "" {
				t.Fatalf("reference run failed: %s", want.err)
			}
			var woke []int
			for _, ev := range want.events[1] {
				woke = append(woke, ev.round)
			}
			if !slices.Equal(woke, tc.wake) {
				t.Fatalf("reference: node 1 woke at rounds %v, want %v", woke, tc.wake)
			}
			for _, w := range []int{1, 2, 8} {
				if d := diffResults(run(w, (*Context).AwaitInput), want); d != "" {
					t.Errorf("w=%d: %s", w, d)
				}
			}
		})
	}
}
