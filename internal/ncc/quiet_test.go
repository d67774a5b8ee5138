package ncc

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// eventPlan is a sparse fault plan that knows its event rounds, so its
// NextEvent is exact: a few outage-and-revival pairs (some revivals with
// Reset) and kills at seeded rounds, i.i.d. drops in every round, and one
// link cut into node cutTo from round cutAt on. asked counts the rounds
// Transitions was asked about.
type eventPlan struct {
	n      int
	rounds []int // sorted event rounds
	events map[int]planEvent
	cutAt  int
	cutTo  NodeID
	asked  *int
}

type planEvent struct {
	down []Outage
	up   []Revival
}

func newEventPlan(n int, seed uint64) *eventPlan {
	rng := rand.New(rand.NewPCG(seed, 0x51ee9))
	p := &eventPlan{n: n, events: map[int]planEvent{}, cutAt: 40 + rng.IntN(200), cutTo: rng.IntN(n), asked: new(int)}
	add := func(round int, o *Outage, v *Revival) {
		e := p.events[round]
		if o != nil {
			e.down = append(e.down, *o)
		}
		if v != nil {
			e.up = append(e.up, *v)
		}
		p.events[round] = e
	}
	for k := 0; k < 6; k++ {
		at, node := 1+rng.IntN(500), rng.IntN(n)
		add(at, &Outage{Node: node}, nil)
		add(at+1+rng.IntN(80), nil, &Revival{Node: node, Reset: rng.IntN(2) == 0})
	}
	for k := 0; k < 2; k++ {
		add(1+rng.IntN(500), &Outage{Node: rng.IntN(n), Kill: true}, nil)
	}
	for r := range p.events {
		p.rounds = append(p.rounds, r)
	}
	slices.Sort(p.rounds)
	return p
}

func (p *eventPlan) Transitions(round int) ([]Outage, []Revival) {
	*p.asked++
	e := p.events[round]
	return e.down, e.up
}

func (p *eventPlan) Loss(round int) (float64, LinkCut) {
	if round < p.cutAt {
		return 0.1, LinkCut{}
	}
	to := make([]bool, p.n)
	to[p.cutTo] = true
	return 0.1, LinkCut{To: to}
}

func (p *eventPlan) NextEvent(round int) int {
	if i, _ := slices.BinarySearch(p.rounds, round); i < len(p.rounds) {
		return p.rounds[i]
	}
	return math.MaxInt
}

// steppingPlan is the same plan answering NextEvent(r) = r, so the engine
// processes every round.
type steppingPlan struct{ *eventPlan }

func (steppingPlan) NextEvent(round int) int { return round }

// quietProgram mostly sleeps: each of its 12–24 steps sends to a random peer
// every other step or so and waits with a deadline 1–80 rounds away, or, one
// time in ten in its first half, with none; so most rounds release nobody, and a message that
// wakes a sleeper early leaves its timer stale. wait is the engine's AwaitInput or
// its EndRound loop.
func quietProgram(wait func(*Context, int) []Received) func(*Context, func([]Received)) {
	return func(ctx *Context, record func([]Received)) {
		rng := ctx.Rand // a revival with reset reseeds it
		steps := 12 + rng().IntN(13)
		for step := 0; step < steps; step++ {
			if rng().IntN(2) == 0 {
				if to := rng().IntN(ctx.N()); to != ctx.ID() {
					ctx.SendWord(to, Word(rng().Uint64()))
				}
			}
			deadline := ctx.Round() + 1 + rng().IntN(80)
			if rng().IntN(10) == 0 && step < steps/2 {
				deadline = NoDeadline
			}
			record(wait(ctx, deadline))
		}
	}
}

// TestQuietSkipMatchesStepping is a differential test of the quiet-round
// skip: a run whose plan names its next event exactly, and which therefore
// jumps over rounds that release nobody, must match the same run under the
// same plan answering NextEvent(r) = r, which steps every round, in Stats,
// the run error, every node's (round, inbox) sequence and, with the probe
// on, the RoundSample series, at 1, 2 and 4 workers with the probe on and
// off. Without a plan, where nothing can stop the skip, AwaitInput must
// match its EndRound loop, which sleeps through nothing.
func TestQuietSkipMatchesStepping(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	await := quietProgram((*Context).AwaitInput)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		n := []int{9, 40, 150}[seed%3]
		t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
			cfg := Config{N: n, Seed: seed, MaxWords: 2, MaxRounds: 3000}
			plan := newEventPlan(n, uint64(seed))
			stepped := cfg
			stepped.FaultPlan = steppingPlan{plan}
			want := runRecorded(stepped, true, await)
			if *plan.asked != want.stats.Rounds {
				t.Fatalf("the stepping plan was asked about %d rounds of %d", *plan.asked, want.stats.Rounds)
			}
			wantNoPlan := runRecorded(cfg, true, quietProgram(awaitLoop))
			t.Logf("%d rounds, %d messages, %d dropped by the plan, killed %d, revived %d, unfinished %v, error %q",
				want.stats.Rounds, want.stats.Messages, want.stats.DroppedFault+want.stats.DroppedDead,
				want.stats.NodesKilled, want.stats.NodesRevived, want.stats.Unfinished, want.err)
			for _, w := range []int{1, 2, 4} {
				for _, probe := range []bool{true, false} {
					untraced := func(r diffResult) diffResult {
						if !probe {
							r.samples = nil
						}
						return r
					}
					cfg.Workers = w
					cfg.FaultPlan = nil
					if d := diffResults(runRecorded(cfg, probe, await), untraced(wantNoPlan)); d != "" {
						t.Fatalf("no plan, w=%d probe=%v: %s", w, probe, d)
					}
					*plan.asked = 0
					cfg.FaultPlan = plan
					got := runRecorded(cfg, probe, await)
					if d := diffResults(got, untraced(want)); d != "" {
						t.Fatalf("w=%d probe=%v: %s", w, probe, d)
					}
					if *plan.asked >= got.stats.Rounds {
						t.Errorf("w=%d probe=%v: the plan was asked about all %d rounds: nothing was skipped",
							w, probe, got.stats.Rounds)
					}
				}
			}
			t.Logf("the skipping runs processed %d of the %d rounds", *plan.asked, want.stats.Rounds)
		})
	}
}

// askedPlan is a fault plan with no event that records the rounds it is
// asked about, which are the rounds the engine processes. With stepping set
// its NextEvent names every round, so the engine steps through them all.
type askedPlan struct {
	asked    *[]int
	stepping bool
}

func (p askedPlan) Transitions(round int) ([]Outage, []Revival) {
	*p.asked = append(*p.asked, round)
	return nil, nil
}

func (askedPlan) Loss(int) (float64, LinkCut) { return 0, LinkCut{} }

func (p askedPlan) NextEvent(round int) int {
	if p.stepping {
		return round
	}
	return math.MaxInt
}

// TestQuietSkipPassesStaleTimers puts a stale timer on top of a heap when a
// skip starts: node 0 sleeps until round 10, is woken in round 2 by node 1,
// which then finishes, and sleeps again until round 100. The skip must jump
// from round 3 to round 99, the one before the live timer's, in one step,
// not stop at round 9 for the stale one; and the run must match the same run
// stepped round by round in Stats, node histories and RoundSample series.
func TestQuietSkipPassesStaleTimers(t *testing.T) {
	program := func(ctx *Context, record func([]Received)) {
		if ctx.ID() == 0 {
			record(ctx.AwaitInput(10))
			record(ctx.AwaitInput(100))
			return
		}
		record(ctx.EndRound())
		ctx.SendWord(0, 7)
		record(ctx.EndRound())
	}
	for _, w := range []int{1, 2} {
		var skipped, stepped []int
		cfg := Config{N: 2, Seed: 1, Workers: w}
		cfg.FaultPlan = askedPlan{asked: &stepped, stepping: true}
		want := runRecorded(cfg, true, program)
		cfg.FaultPlan = askedPlan{asked: &skipped}
		got := runRecorded(cfg, true, program)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("w=%d: the skipping run differs from the stepping one: %s", w, d)
		}
		if got.stats.Rounds != 100 || len(stepped) != 100 {
			t.Fatalf("w=%d: %d rounds, %d stepped; want 100 of each", w, got.stats.Rounds, len(stepped))
		}
		if want := []int{0, 1, 2, 99}; !slices.Equal(skipped, want) {
			t.Errorf("w=%d: the skipping run processed rounds %v, want %v", w, skipped, want)
		}
	}
}
