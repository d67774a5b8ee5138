package ncc

import (
	"fmt"
	"runtime"
	"testing"
)

// Engine microbenchmarks: raw round-delivery throughput of the simulator
// itself (trivial per-node programs), across the three traffic shapes that
// stress different engine paths. Sub-benchmarks vary Config.Workers so the
// serial coordinator (w=1) can be compared against the sharded worker pool
// (w=GOMAXPROCS and a fixed w=8) on the same host:
//
//	go test ./internal/ncc -run '^$' -bench BenchmarkEngine -benchmem
//
// On a multi-core host the dense n=1024 case is the headline number; rounds
// are reported via the rounds/s metric so worker counts compare directly.

const benchRounds = 20

func benchWorkerCounts() []int {
	counts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 8 {
		counts = append(counts, p)
	}
	counts = append(counts, 8)
	return counts
}

func runEngineBench(b *testing.B, n, workers int, program func(*Context)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := Run(Config{N: n, Seed: 1, Workers: workers}, program)
		if err != nil {
			b.Fatal(err)
		}
		if st.Rounds != benchRounds {
			b.Fatalf("rounds = %d, want %d", st.Rounds, benchRounds)
		}
	}
	b.ReportMetric(float64(benchRounds*b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkEngineDense saturates every node's send and receive capacity:
// node u sends cap messages to u+1..u+cap (mod n), so every node also
// receives exactly cap messages — the all-to-all worst case of the model.
func BenchmarkEngineDense(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(b *testing.B) {
				runEngineBench(b, n, w, func(ctx *Context) {
					for r := 0; r < benchRounds; r++ {
						for k := 1; k <= ctx.Cap(); k++ {
							ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(uint64(k)))
						}
						ctx.EndRound()
					}
				})
			})
		}
	}
}

// BenchmarkEngineBarrier is the L0 ladder point: empty rounds at the default
// worker count, so every nanosecond is the round barrier itself — arrival,
// coordinator wake, an empty delivery pass and release. ns/node-round is the
// per-node price of one synchronous round. The n=2048 point is gated against
// BENCH_baseline.json in CI.
func BenchmarkEngineBarrier(b *testing.B) {
	const rounds = 100
	for _, n := range []int{64, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := Run(Config{N: n, Seed: 1}, func(ctx *Context) {
					for r := 0; r < rounds; r++ {
						ctx.EndRound()
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				if st.Rounds != rounds {
					b.Fatalf("rounds = %d, want %d", st.Rounds, rounds)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*rounds*int64(n)), "ns/node-round")
		})
	}
}

// BenchmarkEngineSleep is the L1 ladder point for sleeping rounds: a token
// circulates around the ring for 20k rounds while every other node sleeps in
// AwaitInput until the token reaches it or the final round comes. One node
// runs per round, so ns/round is the price of a round with one active node
// among n; it should not grow with n.
func BenchmarkEngineSleep(b *testing.B) {
	const rounds = 20000
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := Run(Config{N: n, Seed: 1}, func(ctx *Context) {
					next := (ctx.ID() + 1) % ctx.N()
					if ctx.ID() == 0 {
						ctx.SendWord(next, 0)
					}
					for ctx.Round() < rounds {
						if len(ctx.AwaitInput(rounds)) > 0 && ctx.Round() < rounds {
							ctx.SendWord(next, 0)
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				if st.Rounds != rounds || st.Messages != rounds {
					b.Fatalf("rounds = %d, messages = %d, want %d each", st.Rounds, st.Messages, rounds)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*rounds), "ns/round")
		})
	}
}

// BenchmarkEngineScale is the large-N trajectory: the node counts where the
// paper's O(log n) capacity bounds become interesting. The 64k point runs
// dense traffic (every node saturates cap = log2 n) and is the regression
// gate CI compares against BENCH_baseline.json; the 256k and 1M points run
// one message per node per round so a single iteration stays inside CI's
// bench-smoke budget. Workers defaults to GOMAXPROCS.
func BenchmarkEngineScale(b *testing.B) {
	cases := []struct {
		n, rounds int
		dense     bool
	}{
		{65536, 4, true},
		{262144, 4, false},
		{1048576, 2, false},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(fmt.Sprintf("n=%d", tc.n), func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			run := func() {
				st, err := Run(Config{N: tc.n, Seed: 1, CapFactor: 1}, func(ctx *Context) {
					for r := 0; r < tc.rounds; r++ {
						if tc.dense {
							for k := 1; k <= ctx.Cap(); k++ {
								ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(uint64(k)))
							}
						} else {
							ctx.SendWord((ctx.ID()+1)%ctx.N(), Word(uint64(r)))
						}
						ctx.EndRound()
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				if st.Rounds != tc.rounds {
					b.Fatalf("rounds = %d, want %d", st.Rounds, tc.rounds)
				}
				msgs = st.Messages
			}
			// The gated dense point gets one untimed warm-up run that grows
			// the heap: without it a process's first timed run reads up to
			// 1.8x the later ones. The sparse points keep a one-run budget.
			if tc.dense {
				run()
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(msgs)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkEngineProbe measures the telemetry plane's cost at the round
// barrier: the same dense workload with Probe nil (the default every scheduler
// and benchmark runs with) versus a live probe draining every RoundSample.
// The probe=off point is benchcheck-gated against BENCH_baseline.json, so a
// change that sneaks work into the nil-probe path fails CI; probe=on is
// reported for comparison but not gated (its cost is the feature's price).
func BenchmarkEngineProbe(b *testing.B) {
	const n = 4096
	program := func(ctx *Context) {
		for r := 0; r < benchRounds; r++ {
			for k := 1; k <= ctx.Cap(); k++ {
				ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(uint64(k)))
			}
			ctx.EndRound()
		}
	}
	b.Run("probe=off", func(b *testing.B) {
		runEngineBench(b, n, 0, program)
	})
	b.Run("probe=on", func(b *testing.B) {
		b.ReportAllocs()
		var sink int64
		for i := 0; i < b.N; i++ {
			st, err := Run(Config{N: n, Seed: 1, Probe: func(s RoundSample, _ []ShardTiming) {
				sink += int64(s.Messages)
			}}, program)
			if err != nil {
				b.Fatal(err)
			}
			if st.Rounds != benchRounds {
				b.Fatalf("rounds = %d, want %d", st.Rounds, benchRounds)
			}
		}
		if sink == 0 {
			b.Fatal("probe never observed traffic")
		}
		b.ReportMetric(float64(benchRounds*b.N)/b.Elapsed().Seconds(), "rounds/s")
	})
}

// BenchmarkEngineSparse sends one message per node per round (a ring): the
// barrier and coordination overhead dominates, not envelope shuffling.
func BenchmarkEngineSparse(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(b *testing.B) {
				runEngineBench(b, n, w, func(ctx *Context) {
					for r := 0; r < benchRounds; r++ {
						ctx.SendWord((ctx.ID()+1)%ctx.N(), Word(1))
						ctx.EndRound()
					}
				})
			})
		}
	}
}

// BenchmarkEngineOverload floods node 0 from every other node each round,
// exercising the receive-overflow truncation path (seeded shuffle + resort).
func BenchmarkEngineOverload(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/w=%d", n, w), func(b *testing.B) {
				runEngineBench(b, n, w, func(ctx *Context) {
					for r := 0; r < benchRounds; r++ {
						if ctx.ID() != 0 {
							ctx.SendWord(0, Word(uint64(r)))
						}
						ctx.EndRound()
					}
				})
			})
		}
	}
}
