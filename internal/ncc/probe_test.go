package ncc

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// collectSamples runs cfg with a probe that records every sample and sanity-
// checks the timing slice shape. A node program that panics fails the test
// even under a FaultPlan, whose failure isolation would otherwise count it.
func collectSamples(t *testing.T, cfg Config, program func(*Context)) ([]RoundSample, Stats) {
	t.Helper()
	var samples []RoundSample
	workers := cfg.Workers
	cfg.Probe = func(s RoundSample, timing []ShardTiming) {
		if workers > 0 && len(timing) != max(1, min(workers, cfg.N)) {
			t.Errorf("round %d: timing has %d shards, want %d", s.Round, len(timing), workers)
		}
		samples = append(samples, s)
	}
	st, err := Run(cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeFailures != 0 {
		t.Fatalf("%d node programs panicked", st.NodeFailures)
	}
	return samples, st
}

// TestProbeMatchesStats pins the sample semantics: per-round counters are the
// deltas of the run's cumulative Stats, per-round maxima fold to the run
// maxima, and Delivered is Messages minus the receive-overflow truncation.
func TestProbeMatchesStats(t *testing.T) {
	const n = 32
	program := func(ctx *Context) {
		for r := 0; r < 6; r++ {
			if r%2 == 0 {
				// Fill the send cap exactly.
				for k := 1; k <= ctx.Cap(); k++ {
					ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(uint64(k)))
				}
			} else {
				// Converge on one hot receiver: offered n-1 >> cap.
				hot := NodeID(r % ctx.N())
				if ctx.ID() != hot {
					ctx.SendWord(hot, 1)
				}
			}
			ctx.EndRound()
		}
	}
	samples, st := collectSamples(t, Config{N: n, Seed: 7, CapFactor: 1, FaultPlan: lossPlan{p: 0.1}, Workers: 4}, program)
	if len(samples) != st.Rounds {
		t.Fatalf("got %d samples for %d rounds", len(samples), st.Rounds)
	}
	var sum RoundSample
	var maxSend, maxOff, maxDel int
	for i, s := range samples {
		if s.Round != i {
			t.Errorf("sample %d has Round=%d", i, s.Round)
		}
		if s.Delivered != s.Messages-s.RecvThrottled {
			t.Errorf("round %d: Delivered=%d, want Messages-RecvThrottled=%d", i, s.Delivered, s.Messages-s.RecvThrottled)
		}
		sum.Messages += s.Messages
		sum.Words += s.Words
		sum.RecvThrottled += s.RecvThrottled
		sum.DroppedFault += s.DroppedFault
		sum.DroppedDead += s.DroppedDead
		sum.DroppedToFinished += s.DroppedToFinished
		maxSend = max(maxSend, s.MaxSendLoad)
		maxOff = max(maxOff, s.MaxRecvOffered)
		maxDel = max(maxDel, s.MaxRecvDelivered)
	}
	if int64(sum.Messages) != st.Messages || int64(sum.Words) != st.Words {
		t.Errorf("sample sums msgs=%d words=%d, stats %d/%d", sum.Messages, sum.Words, st.Messages, st.Words)
	}
	if int64(sum.RecvThrottled) != st.DroppedRecvOverflow {
		t.Errorf("RecvThrottled sum %d != DroppedRecvOverflow %d", sum.RecvThrottled, st.DroppedRecvOverflow)
	}
	if int64(sum.DroppedFault) != st.DroppedFault {
		t.Errorf("DroppedFault sum %d != stats %d", sum.DroppedFault, st.DroppedFault)
	}
	if sum.RecvThrottled == 0 || sum.DroppedFault == 0 {
		t.Errorf("test traffic should exercise every drop path, got %+v", sum)
	}
	if maxSend != st.MaxSendLoad || maxOff != st.MaxRecvOffered || maxDel != st.MaxRecvDelivered {
		t.Errorf("sample maxima (%d,%d,%d) != stats (%d,%d,%d)",
			maxSend, maxOff, maxDel, st.MaxSendLoad, st.MaxRecvOffered, st.MaxRecvDelivered)
	}
}

// TestProbeComputeSpan pins ShardTiming.ComputeNanos: each shard's span from
// the previous release (the run's start, in round 0) to its last arrival
// covers the programs' own per-round work, here a sleep of at least 2 ms.
func TestProbeComputeSpan(t *testing.T) {
	const work = 2 * time.Millisecond
	var spans []int64
	probe := func(_ RoundSample, timing []ShardTiming) {
		for _, tm := range timing {
			spans = append(spans, tm.ComputeNanos)
		}
	}
	_, err := Run(Config{N: 8, Seed: 1, Workers: 2, Probe: probe}, func(ctx *Context) {
		for r := 0; r < 3; r++ {
			time.Sleep(work)
			ctx.EndRound()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3*2 {
		t.Fatalf("got %d shard spans, want 3 rounds x 2 shards", len(spans))
	}
	for i, v := range spans {
		if v < int64(work) {
			t.Errorf("round %d shard %d: ComputeNanos = %d, want >= %d", i/2, i%2, v, int64(work))
		}
	}
}

// TestProbeSentView pins ShardTiming.Sent: shard i's Sent[j] holds exactly
// the envelopes from shard i's senders to shard j's receivers that survived
// the fault drops, before receive truncation, so its lengths and widths sum to
// the sample's Messages and Words at any worker count.
func TestProbeSentView(t *testing.T) {
	const n = 32
	program := func(ctx *Context) {
		w := []uint64{1, 2, 3}
		for r := 0; r < 6; r++ {
			if r%2 == 0 {
				for k := 1; k <= ctx.Cap(); k++ {
					ctx.SendWords((ctx.ID()+k)%ctx.N(), w)
				}
			} else if hot := NodeID(r % ctx.N()); ctx.ID() != hot {
				ctx.SendWords2(hot, Words2{1, 2}) // offered n-1 >> cap
			}
			ctx.EndRound()
		}
	}
	for _, workers := range []int{1, 4} {
		var dropped, throttled int
		cfg := Config{N: n, Seed: 7, CapFactor: 1, FaultPlan: lossPlan{p: 0.1}, Workers: workers}
		width := (n + workers - 1) / workers
		cfg.Probe = func(s RoundSample, timing []ShardTiming) {
			var msgs, words int
			for i := range timing {
				if len(timing[i].Sent) != len(timing) {
					t.Fatalf("workers=%d: shard %d has %d receiver views, want %d", workers, i, len(timing[i].Sent), len(timing))
				}
				for j, sent := range timing[i].Sent {
					for k := range sent {
						e := &sent[k]
						if int(e.From)/width != i || int(e.To)/width != j {
							t.Fatalf("workers=%d round %d: envelope %d->%d in Sent[%d][%d]", workers, s.Round, e.From, e.To, i, j)
						}
						if k > 0 && e.From < sent[k-1].From {
							t.Fatalf("workers=%d round %d: Sent[%d][%d] not sender-sorted", workers, s.Round, i, j)
						}
						words += e.Words()
					}
					msgs += len(sent)
				}
			}
			if msgs != s.Messages || words != s.Words {
				t.Errorf("workers=%d round %d: view holds %d msgs/%d words, sample %d/%d", workers, s.Round, msgs, words, s.Messages, s.Words)
			}
			dropped += s.DroppedFault
			throttled += s.RecvThrottled
		}
		st, err := Run(cfg, program)
		if err != nil {
			t.Fatal(err)
		}
		if st.NodeFailures != 0 {
			t.Fatalf("workers=%d: %d node programs panicked", workers, st.NodeFailures)
		}
		if dropped == 0 || throttled == 0 {
			t.Errorf("workers=%d: traffic should hit fault drops (%d) and receive truncation (%d)", workers, dropped, throttled)
		}
	}
}

// TestProbeWorkerInvariance pins the determinism guarantee the trace plane is
// built on: the sample series is bit-identical at any worker count.
func TestProbeWorkerInvariance(t *testing.T) {
	program := func(ctx *Context) {
		for r := 0; r < 5; r++ {
			hot := NodeID(r % ctx.N())
			if ctx.ID() != hot {
				ctx.SendWord(hot, Word(uint64(r)))
			}
			ctx.EndRound()
		}
	}
	run := func(workers int) []RoundSample {
		samples, _ := collectSamples(t, Config{N: 24, Seed: 42, CapFactor: 1, FaultPlan: lossPlan{p: 0.2}, Workers: workers}, program)
		return samples
	}
	base := run(1)
	for _, w := range []int{3, 8} {
		if got := run(w); !slices.Equal(got, base) {
			t.Errorf("workers=%d sample series diverges from workers=1:\n got %+v\nwant %+v", w, got, base)
		}
	}
}

// TestProbeActiveQuiescent checks the active-node accounting: a node is
// active in a round iff it attempted to send or was offered traffic.
func TestProbeActiveQuiescent(t *testing.T) {
	samples, st := collectSamples(t, Config{N: 8, Seed: 1}, func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.SendWord(1, 1)
		}
		ctx.EndRound()
		ctx.EndRound()
	})
	if st.Rounds != 2 || len(samples) != 2 {
		t.Fatalf("rounds=%d samples=%d, want 2/2", st.Rounds, len(samples))
	}
	if samples[0].Active != 2 {
		t.Errorf("round 0 Active=%d, want 2 (one sender, one receiver)", samples[0].Active)
	}
	if samples[1].Active != 0 {
		t.Errorf("round 1 Active=%d, want 0 (all quiescent)", samples[1].Active)
	}
	if samples[0].Finished != 0 || samples[1].Finished != 0 {
		t.Errorf("Finished = %d,%d before any retirement", samples[0].Finished, samples[1].Finished)
	}
}

// TestProbeDownAndFinished checks the liveness columns against a scripted
// fault plan and staggered program exits.
func TestProbeDownAndFinished(t *testing.T) {
	plan := planFunc(func(round int) ([]Outage, []Revival) {
		switch round {
		case 1:
			return []Outage{{Node: 2}}, nil
		case 3:
			return nil, []Revival{{Node: 2}}
		}
		return nil, nil
	})
	samples, st := collectSamples(t, Config{N: 6, Seed: 3, FaultPlan: plan}, func(ctx *Context) {
		rounds := 5
		if ctx.ID() == 5 {
			rounds = 2 // retires early; later rounds see it as finished
		}
		for r := 0; r < rounds; r++ {
			ctx.SendWord((ctx.ID()+1)%ctx.N(), 1)
			ctx.EndRound()
		}
	})
	if len(samples) != st.Rounds {
		t.Fatalf("got %d samples for %d rounds", len(samples), st.Rounds)
	}
	wantDown := []int{0, 1, 1, 0, 0}
	for i, w := range wantDown {
		if samples[i].Down != w {
			t.Errorf("round %d Down=%d, want %d", i, samples[i].Down, w)
		}
	}
	// Node 5 exits after its second EndRound, so it is retired before round 2
	// moves messages.
	wantFin := []int{0, 0, 1, 1, 1}
	for i, w := range wantFin {
		if samples[i].Finished != w {
			t.Errorf("round %d Finished=%d, want %d", i, samples[i].Finished, w)
		}
	}
	var dead, fin int64
	for _, s := range samples {
		dead += int64(s.DroppedDead)
		fin += int64(s.DroppedToFinished)
	}
	if dead != st.DroppedDead || fin != st.DroppedToFinished {
		t.Errorf("drop sums dead=%d fin=%d, stats %d/%d", dead, fin, st.DroppedDead, st.DroppedToFinished)
	}
	if dead == 0 || fin == 0 {
		t.Errorf("test traffic should hit both drop paths, got dead=%d fin=%d", dead, fin)
	}
}

// TestProbePanicAborts: a panicking probe aborts the run with an error,
// instead of crashing the process or leaving nodes suspended.
func TestProbePanicAborts(t *testing.T) {
	cfg := Config{N: 4, Seed: 1, Probe: func(RoundSample, []ShardTiming) { panic("probe boom") }}
	_, err := Run(cfg, func(ctx *Context) {
		for {
			ctx.SendWord((ctx.ID()+1)%ctx.N(), 1)
			ctx.EndRound()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "probe boom") {
		t.Fatalf("err = %v, want probe panic", err)
	}
}

// TestProbeSteadyStateAllocs pins the probe plane's own allocation behavior:
// with a no-op probe attached, extra rounds still allocate (near) nothing —
// all probe scratch is provisioned at run start.
func TestProbeSteadyStateAllocs(t *testing.T) {
	const (
		n      = 256
		warmup = 5
		extra  = 100
	)
	noop := func(RoundSample, []ShardTiming) {}
	program := func(rounds int) func() {
		return func() {
			st, err := Run(Config{N: n, Seed: 1, CapFactor: 1, Workers: 1, Probe: noop}, func(ctx *Context) {
				for r := 0; r < rounds; r++ {
					for k := 1; k <= ctx.Cap(); k++ {
						ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(uint64(k)))
					}
					ctx.EndRound()
				}
			})
			if err != nil {
				panic(err)
			}
			if st.Rounds != rounds {
				panic("unexpected round count")
			}
		}
	}
	short := testing.AllocsPerRun(3, program(warmup))
	long := testing.AllocsPerRun(3, program(warmup+extra))
	perRound := (long - short) / extra
	t.Logf("allocs with probe on: short=%v long=%v -> %.2f allocs/round", short, long, perRound)
	if perRound > 8 {
		t.Errorf("probing steady state allocates %.2f allocs/round, want ~0", perRound)
	}
}
