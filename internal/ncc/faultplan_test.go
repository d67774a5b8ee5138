package ncc

import (
	"reflect"
	"testing"
)

// planFunc adapts a liveness-transition function to the FaultPlan interface
// for tests; its plan loses no messages.
type planFunc func(round int) ([]Outage, []Revival)

func (f planFunc) Transitions(round int) ([]Outage, []Revival) { return f(round) }

func (planFunc) Loss(int) (float64, LinkCut) { return 0, LinkCut{} }

// NextEvent cannot tell, so the engine steps every round.
func (planFunc) NextEvent(round int) int { return round }

// lossPlan is a test FaultPlan with link loss only: drop probability p in
// every round, and the link cut cut returns for the round (none if nil).
type lossPlan struct {
	p   float64
	cut func(round int) LinkCut
}

func (lossPlan) Transitions(int) ([]Outage, []Revival) { return nil, nil }

func (lossPlan) NextEvent(round int) int { return round }

func (l lossPlan) Loss(round int) (float64, LinkCut) {
	if l.cut == nil {
		return l.p, LinkCut{}
	}
	return l.p, l.cut(round)
}

// TestFaultPlanKill fail-stops one node mid-run: the victim must retire with
// no output, appear in Unfinished and DownAtEnd, and traffic addressed to it
// must be counted as DroppedDead — across worker counts, bit-identically.
func TestFaultPlanKill(t *testing.T) {
	const n = 24
	const victim = 5
	plan := planFunc(func(round int) ([]Outage, []Revival) {
		if round == 3 {
			return []Outage{{Node: victim, Kill: true}}, nil
		}
		return nil, nil
	})
	runWith := func(workers int) ([]int, Stats) {
		outs, st, err := Collect(Config{N: n, Seed: 11, Workers: workers, FaultPlan: plan},
			func(ctx *Context) int {
				for r := 0; r < 10; r++ {
					ctx.SendWord((ctx.ID()+1)%n, Word(r))
					ctx.EndRound()
				}
				return ctx.ID() + 100
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outs, st
	}
	baseOut, base := runWith(1)
	if baseOut[victim] != 0 {
		t.Errorf("killed node produced output %d, want zero value", baseOut[victim])
	}
	if !reflect.DeepEqual(base.Unfinished, []int{victim}) || !reflect.DeepEqual(base.DownAtEnd, []int{victim}) {
		t.Errorf("unfinished=%v downAtEnd=%v, want both [%d]", base.Unfinished, base.DownAtEnd, victim)
	}
	if base.NodesKilled != 1 || base.DroppedDead == 0 {
		t.Errorf("nodesKilled=%d droppedDead=%d, want 1 and > 0", base.NodesKilled, base.DroppedDead)
	}
	for _, workers := range []int{2, 7} {
		gotOut, got := runWith(workers)
		if !reflect.DeepEqual(got, base) || !reflect.DeepEqual(gotOut, baseOut) {
			t.Errorf("workers=%d diverges from workers=1:\n  w1: %+v\n  w%d: %+v", workers, base, workers, got)
		}
	}
}

// TestFaultPlanOutageAndRevival suspends a node for a round window: messages
// through the window are suppressed in both directions, delivery resumes
// after revival, and the revived node is absent from DownAtEnd.
func TestFaultPlanOutageAndRevival(t *testing.T) {
	const n = 16
	const victim = 2
	plan := planFunc(func(round int) ([]Outage, []Revival) {
		switch round {
		case 2:
			return []Outage{{Node: victim}}, nil
		case 5:
			// Reset would also discard the message the victim buffered for
			// round 5; keep state so delivery resumes the moment service does.
			return nil, []Revival{{Node: victim}}
		}
		return nil, nil
	})
	recv := make([]int, 12) // messages node 0 got from victim, per round
	_, st, err := Collect(Config{N: n, Seed: 3, FaultPlan: plan}, func(ctx *Context) int {
		alive := 0
		for r := 0; r < 12; r++ {
			if ctx.ID() == victim {
				ctx.SendWord(0, Word(r))
			}
			if ctx.Alive() {
				alive++
			}
			for _, rc := range ctx.EndRound() {
				if ctx.ID() == 0 && rc.From == victim {
					recv[r]++
				}
			}
		}
		return alive
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		suppressed := r >= 2 && r < 5
		if got := recv[r]; (got == 0) != suppressed {
			t.Errorf("round %d: node 0 received %d messages from suspended-window victim (window [2,5))", r, got)
		}
	}
	if st.NodesDowned != 1 || st.NodesRevived != 1 {
		t.Errorf("downed=%d revived=%d, want 1/1", st.NodesDowned, st.NodesRevived)
	}
	if len(st.DownAtEnd) != 0 || len(st.Unfinished) != 0 {
		t.Errorf("downAtEnd=%v unfinished=%v, want empty", st.DownAtEnd, st.Unfinished)
	}
}

// TestFaultPlanPanicIsolation: with a plan attached, a panicking node program
// is retired as a crash (counted, listed in Unfinished) instead of failing
// the run; without a plan the panic still aborts the run.
func TestFaultPlanPanicIsolation(t *testing.T) {
	program := func(ctx *Context) int {
		ctx.SendWord((ctx.ID()+1)%8, 1)
		ctx.EndRound()
		if ctx.ID() == 4 {
			for {
				if ctx.Round() == 2 {
					panic("synthetic protocol violation")
				}
				ctx.EndRound()
			}
		}
		return 7
	}
	noop := planFunc(func(int) ([]Outage, []Revival) { return nil, nil })
	outs, st, err := Collect(Config{N: 8, Seed: 1, FaultPlan: noop}, program)
	if err != nil {
		t.Fatalf("isolated run failed: %v", err)
	}
	if st.NodeFailures != 1 || !reflect.DeepEqual(st.Unfinished, []int{4}) {
		t.Errorf("nodeFailures=%d unfinished=%v, want 1 and [4]", st.NodeFailures, st.Unfinished)
	}
	if outs[4] != 0 {
		t.Errorf("crashed node produced output %d", outs[4])
	}
	if _, _, err := Collect(Config{N: 8, Seed: 1}, program); err == nil {
		t.Error("without a fault plan the panic must abort the run")
	}
}
