package ncc

import "testing"

// TestSteadyStateAllocs pins the zero-allocation property of the message
// plane: once per-node buffers have warmed up (a handful of rounds), extra
// rounds of capacity-saturating Word traffic must allocate nothing per
// message — no payload boxing, no per-round barrier channels, no staging
// buffers. It measures the allocation *difference* between a short and a
// long run of the same traffic shape, so one-time setup costs (goroutines,
// contexts, warm-up growth) cancel out. The await shape adds AwaitInput:
// woken by input, and asleep through rounds that release nobody.
func TestSteadyStateAllocs(t *testing.T) {
	const (
		n        = 256
		warmup   = 5
		extra    = 100
		workers  = 1 // AllocsPerRun pins GOMAXPROCS to 1 anyway
		perMsgOK = 0.01
	)
	send := func(ctx *Context) {
		for k := 1; k <= ctx.Cap(); k++ {
			ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(uint64(k)))
		}
	}
	shapes := []struct {
		name   string
		rounds int // rounds per step
		step   func(ctx *Context)
	}{
		{"endround", 1, func(ctx *Context) {
			send(ctx)
			ctx.EndRound()
		}},
		{"await", 4, func(ctx *Context) {
			send(ctx)
			ctx.AwaitInput(NoDeadline)      // the traffic wakes every node
			ctx.AwaitInput(ctx.Round() + 3) // silence: three rounds asleep
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			program := func(steps int) func() {
				return func() {
					st, err := Run(Config{N: n, Seed: 1, CapFactor: 1, Workers: workers}, func(ctx *Context) {
						for s := 0; s < steps; s++ {
							sh.step(ctx)
						}
					})
					if err != nil {
						panic(err)
					}
					if st.Rounds != steps*sh.rounds {
						panic("unexpected round count")
					}
				}
			}
			short := testing.AllocsPerRun(3, program(warmup))
			long := testing.AllocsPerRun(3, program(warmup+extra))

			capacity := (Config{N: n, CapFactor: 1}).Cap()
			extraMsgs := float64(extra * n * capacity)
			perMsg := (long - short) / extraMsgs
			perRound := (long - short) / float64(extra*sh.rounds)
			t.Logf("allocs: short=%v long=%v -> %.5f allocs/message, %.2f allocs/round", short, long, perMsg, perRound)
			if perMsg > perMsgOK {
				t.Errorf("steady state allocates %.5f allocs/message (limit %v): the zero-allocation message plane regressed", perMsg, perMsgOK)
			}
			// A round barrier must not allocate either (the old engine paid
			// one make(chan) per round plus boxing; allow a little GC noise).
			if perRound > 8 {
				t.Errorf("steady state allocates %.2f allocs/round, want ~0: per-round allocation crept back in", perRound)
			}
		})
	}
}
