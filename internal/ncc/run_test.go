package ncc

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCeilLog2(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5}, {1024, 10}, {1025, 11},
	}
	// Pin every power of two and its neighbours: the bits.Len rewrite must
	// agree with ceil(log2(n)) exactly at the boundaries.
	for k := 2; k <= 30; k++ {
		p := 1 << k
		cases = append(cases,
			struct{ n, want int }{p - 1, k},
			struct{ n, want int }{p, k},
			struct{ n, want int }{p + 1, k + 1},
		)
	}
	for _, c := range cases {
		if got := CeilLog2(c.n); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFloorLog2(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1023, 9}, {1024, 10},
	}
	for k := 2; k <= 30; k++ {
		p := 1 << k
		cases = append(cases,
			struct{ n, want int }{p - 1, k - 1},
			struct{ n, want int }{p, k},
			struct{ n, want int }{p + 1, k},
		)
	}
	for _, c := range cases {
		if got := FloorLog2(c.n); got != c.want {
			t.Errorf("FloorLog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPingPong(t *testing.T) {
	const rounds = 5
	cfg := Config{N: 2, Seed: 1}
	st, err := Run(cfg, func(ctx *Context) {
		peer := 1 - ctx.ID()
		for i := 0; i < rounds; i++ {
			ctx.SendWord(peer, Word(uint64(ctx.ID()*100+i)))
			got := ctx.EndRound()
			if len(got) != 1 {
				panic("expected exactly one message")
			}
			if got[0].From != peer {
				panic("wrong sender")
			}
			want := Word(uint64(peer*100 + i))
			if w, _ := got[0].AsWord(); w != want {
				panic("wrong payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", st.Rounds, rounds)
	}
	if st.Messages != 2*rounds {
		t.Errorf("messages = %d, want %d", st.Messages, 2*rounds)
	}
	if st.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", st.Dropped())
	}
}

func TestRoundCounterIsGlobal(t *testing.T) {
	cfg := Config{N: 8, Seed: 3}
	_, err := Run(cfg, func(ctx *Context) {
		for i := 0; i < 10; i++ {
			if ctx.Round() != i {
				panic("round counter out of sync")
			}
			ctx.EndRound()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	program := func(ctx *Context) {
		for i := 0; i < 20; i++ {
			to := ctx.Rand().IntN(ctx.N())
			if to != ctx.ID() {
				ctx.SendWord(to, Word(ctx.Rand().Uint64()))
			}
			ctx.EndRound()
		}
	}
	cfg := Config{N: 32, Seed: 42}
	st1, err1 := Run(cfg, program)
	st2, err2 := Run(cfg, program)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("same seed gave different stats:\n%v\n%v", st1, st2)
	}
}

func TestReceiveOverflowDrops(t *testing.T) {
	// Every node floods node 0 in one round; node 0 must receive exactly cap
	// messages, and the overflow must be counted as dropped.
	cfg := Config{N: 64, CapFactor: 2, Seed: 7}
	capacity := cfg.Cap()
	got := 0
	_, err := Run(cfg, func(ctx *Context) {
		if ctx.ID() != 0 {
			ctx.SendWord(0, Word(1))
			ctx.EndRound()
			return
		}
		in := ctx.EndRound()
		got = len(in)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != capacity {
		t.Errorf("node 0 received %d messages, want cap=%d", got, capacity)
	}
}

func TestReceiveOverflowStats(t *testing.T) {
	cfg := Config{N: 64, CapFactor: 2, Seed: 7}
	st, err := Run(cfg, func(ctx *Context) {
		if ctx.ID() != 0 {
			ctx.SendWord(0, Word(1))
		}
		ctx.EndRound()
	})
	if err != nil {
		t.Fatal(err)
	}
	wantDropped := int64(63 - cfg.Cap())
	if st.DroppedRecvOverflow != wantDropped {
		t.Errorf("DroppedRecvOverflow = %d, want %d", st.DroppedRecvOverflow, wantDropped)
	}
	if st.MaxRecvOffered != 63 {
		t.Errorf("MaxRecvOffered = %d, want 63", st.MaxRecvOffered)
	}
	if st.MaxRecvDelivered != cfg.Cap() {
		t.Errorf("MaxRecvDelivered = %d, want %d", st.MaxRecvDelivered, cfg.Cap())
	}
}

// TestSendCapPanics pins the one send-capacity rule: a send over Cap() is a
// program bug whatever the deprecated Config.Strict says.
func TestSendCapPanics(t *testing.T) {
	for _, strict := range []bool{true, false} {
		cfg := Config{N: 4, CapFactor: 1, Seed: 1}
		cfg.Strict = strict
		_, err := Run(cfg, func(ctx *Context) {
			if ctx.ID() == 0 {
				for i := 0; i < ctx.Cap()+1; i++ {
					ctx.SendWord(1+i%3, Word(0))
				}
			}
			ctx.EndRound()
		})
		want := fmt.Sprintf("ncc: node 0 sent %d messages in round 0, capacity is %d", cfg.Cap()+1, cfg.Cap())
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Strict=%v: want %q, got %v", strict, want, err)
		}
	}
}

// TestSendCapPanicFailsFaultedRun pins that failure isolation does not hide
// a send over Cap(): under a fault plan an ordinary panic is one more
// NodeFailures, but a capacity violation is a program bug and fails the run.
func TestSendCapPanicFailsFaultedRun(t *testing.T) {
	st, err := Run(Config{N: 8, CapFactor: 1, Seed: 1, FaultPlan: lossPlan{}}, func(ctx *Context) {
		for r := 0; r < 4; r++ {
			if ctx.ID() == 3 && r == 2 {
				for k := 1; k <= ctx.Cap()+1; k++ {
					ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(k))
				}
			}
			ctx.EndRound()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "capacity is") {
		t.Fatalf("want a capacity error, got %v (node failures %d)", err, st.NodeFailures)
	}
}

// TestBucketGrowth pins how the delivery buckets grow: a full bucket is
// grown once, to what the rest of the round still sends to it, and at least
// doubled. Steady traffic sizes every bucket exactly in round 0 and never
// grows it again; a ramp grows it by at least 2x each time and keeps it
// within 2x of the round's traffic.
func TestBucketGrowth(t *testing.T) {
	const n = 1024
	caps := func(ts []ShardTiming) (c, l [2][2]int) {
		for i := range ts {
			for j, b := range ts[i].Sent {
				c[i][j], l[i][j] = cap(b), len(b)
			}
		}
		return c, l
	}
	t.Run("dense", func(t *testing.T) {
		ReleaseSpare() // recycled buckets would keep an earlier run's capacity
		var first [2][2]int
		rounds := 0
		_, err := Run(Config{N: n, Seed: 1, Workers: 2, Probe: func(s RoundSample, ts []ShardTiming) {
			c, l := caps(ts)
			if s.Round == 0 {
				first = c
			}
			if c != l || c != first {
				t.Errorf("round %d: bucket capacities %v, lengths %v, round 0 capacities %v", s.Round, c, l, first)
			}
			rounds++
		}}, func(ctx *Context) {
			for r := 0; r < 6; r++ {
				for k := 1; k <= ctx.Cap(); k++ {
					ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(k))
				}
				ctx.EndRound()
			}
		})
		if err != nil || rounds != 6 {
			t.Fatalf("rounds %d, err %v", rounds, err)
		}
	})
	t.Run("ramp", func(t *testing.T) {
		ReleaseSpare()
		var prev [2][2]int
		growths := 0
		cfg := Config{N: n, Seed: 1, Workers: 2, Probe: func(s RoundSample, ts []ShardTiming) {
			c, l := caps(ts)
			for i := range c {
				for j := range c[i] {
					if c[i][j] != prev[i][j] {
						growths++
						if c[i][j] < 2*prev[i][j] {
							t.Errorf("round %d: bucket [%d][%d] grew from %d to %d, less than 2x", s.Round, i, j, prev[i][j], c[i][j])
						}
					}
					if c[i][j] > max(2*l[i][j], 16) {
						t.Errorf("round %d: bucket [%d][%d] holds %d of capacity %d", s.Round, i, j, l[i][j], c[i][j])
					}
				}
			}
			prev = c
		}}
		_, err := Run(cfg, func(ctx *Context) {
			for r := 0; r < ctx.Cap(); r++ {
				for k := 1; k <= r; k++ {
					ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(k))
				}
				ctx.EndRound()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if growths < 8 {
			t.Errorf("%d bucket growths, want a ramp that grows every bucket several times", growths)
		}
	})
}

func TestMaxRounds(t *testing.T) {
	cfg := Config{N: 2, Seed: 1, MaxRounds: 10}
	_, err := Run(cfg, func(ctx *Context) {
		for {
			ctx.EndRound()
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, err := Run(Config{N: 2, Seed: 1}, func(ctx *Context) {
		ctx.SendWord(ctx.ID(), Word(0))
		ctx.EndRound()
	})
	if err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("want self-send panic, got %v", err)
	}
}

// TestOversizedPayloadPanics checks that a payload wider than MaxWords
// panics through both sends that can carry one, naming the limit.
func TestOversizedPayloadPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxWords int
		send     func(ctx *Context, to NodeID)
	}{
		{"SendWords", 0, func(ctx *Context, to NodeID) { ctx.SendWords(to, make([]uint64, 1000)) }},
		{"SendWords2", 1, func(ctx *Context, to NodeID) { ctx.SendWords2(to, Words2{}) }},
	} {
		_, err := Run(Config{N: 2, Seed: 1, MaxWords: tc.maxWords}, func(ctx *Context) {
			tc.send(ctx, 1-ctx.ID())
			ctx.EndRound()
		})
		if err == nil || !strings.Contains(err.Error(), "MaxWords") {
			t.Errorf("%s: want a panic naming MaxWords, got %v", tc.name, err)
		}
	}
}

func TestMessagesToFinishedNodesAreDropped(t *testing.T) {
	cfg := Config{N: 4, Seed: 1}
	st, err := Run(cfg, func(ctx *Context) {
		if ctx.ID() != 0 {
			return // finish immediately
		}
		for i := 0; i < 3; i++ {
			ctx.SendWord(1, Word(0))
			ctx.EndRound()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedToFinished != 3 {
		t.Errorf("DroppedToFinished = %d, want 3", st.DroppedToFinished)
	}
}

func TestCollect(t *testing.T) {
	vals, _, err := Collect(Config{N: 8, Seed: 1}, func(ctx *Context) int {
		return ctx.ID() * ctx.ID()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Errorf("vals[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestPlanDropOne(t *testing.T) {
	cfg := Config{N: 4, Seed: 1, FaultPlan: lossPlan{p: 1}}
	var deliveredAny bool
	_, err := Run(cfg, func(ctx *Context) {
		ctx.SendWord((ctx.ID()+1)%ctx.N(), Word(0))
		if len(ctx.EndRound()) > 0 {
			deliveredAny = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if deliveredAny {
		t.Error("drop probability 1 still delivered messages")
	}
}

func TestPlanLinkCut(t *testing.T) {
	// Cut every link into node 2.
	cut := LinkCut{To: []bool{false, false, true, false}}
	cfg := Config{N: 4, Seed: 1, FaultPlan: lossPlan{cut: func(int) LinkCut { return cut }}}
	counts := make([]int, 4)
	_, err := Run(cfg, func(ctx *Context) {
		for to := 0; to < ctx.N(); to++ {
			if to != ctx.ID() {
				ctx.SendWord(to, Word(0))
			}
		}
		counts[ctx.ID()] = len(ctx.EndRound())
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[2] != 0 {
		t.Errorf("node 2 received %d messages despite the link cut", counts[2])
	}
	if counts[1] != 3 {
		t.Errorf("node 1 received %d messages, want 3", counts[1])
	}
}

func TestPanicPropagates(t *testing.T) {
	_, err := Run(Config{N: 4, Seed: 1}, func(ctx *Context) {
		if ctx.ID() == 2 {
			panic("boom")
		}
		for i := 0; i < 100; i++ {
			ctx.EndRound()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want boom panic, got %v", err)
	}
}

// Property: for random fan-out patterns, every transmitted message is either
// delivered or accounted for in a drop counter.
func TestConservationProperty(t *testing.T) {
	check := func(seed int64, n8 uint8, fan uint8) bool {
		n := 2 + int(n8)%30
		f := 1 + int(fan)%5
		var delivered int64
		deliveredPer := make([]int64, n)
		cfg := Config{N: n, CapFactor: 1, Seed: seed}
		st, err := Run(cfg, func(ctx *Context) {
			for i := 0; i < 3; i++ {
				for j := 0; j < min(f, ctx.Cap()); j++ {
					to := ctx.Rand().IntN(ctx.N())
					if to != ctx.ID() {
						ctx.SendWord(to, Word(0))
					}
				}
				deliveredPer[ctx.ID()] += int64(len(ctx.EndRound()))
			}
		})
		if err != nil {
			return false
		}
		delivered = 0
		for _, d := range deliveredPer {
			delivered += d
		}
		return delivered+st.DroppedRecvOverflow == st.Messages
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
