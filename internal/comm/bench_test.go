package comm

import (
	"testing"

	"ncc/internal/ncc"
)

// Benchmarks for the typed collectives themselves (as opposed to the
// engine-level BenchmarkEngine* set in internal/ncc and the raw-engine
// primitive sweeps in the repo root): one session at n=4096, every node
// performing b.N collective calls, so ns/op converges to the steady-state
// cost of one primitive invocation with session setup amortized away.
// ReportAllocs pins the zero-allocation property in the recorded numbers
// (allocs/op -> ~0 as b.N grows) and SetBytes reports payload throughput.
// CI gates BenchmarkAggregate/n=4096 against BENCH_baseline.json via
// cmd/benchcheck.

const benchN = 4096

// benchSession runs node(s, b.N) on every node of an n=benchN clique and
// charges the whole run to the benchmark timer, reporting per-op message
// counts and payload bytes.
func benchSession(b *testing.B, node func(s *Session, iters int)) {
	b.Helper()
	b.ReportAllocs()
	st, err := ncc.Run(ncc.Config{N: benchN, Seed: 1, Strict: true}, func(ctx *ncc.Context) {
		node(NewSession(ctx), b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Words * 8 / int64(b.N))
	b.ReportMetric(float64(st.Messages)/float64(b.N), "msgs/op")
}

// BenchmarkAggregate measures one Aggregation (Theorem 2.3) per op: every
// node contributes one uint64 to a distinct group, combined with Sum
// in-network.
func BenchmarkAggregate(b *testing.B) {
	b.Run("n=4096", func(b *testing.B) {
		benchSession(b, func(s *Session, iters int) {
			me := s.Ctx.ID()
			items := []Agg[uint64]{{Group: uint64((me + 3) % benchN), Target: (me + 3) % benchN, Val: uint64(me)}}
			for i := 0; i < iters; i++ {
				if got := Aggregate(s, items, Sum, 1); len(got) != 1 {
					panic("aggregate lost a group")
				}
			}
		})
	})
}

// BenchmarkMulticast measures one Multicast (Theorem 2.5) per op over trees
// set up once per session: every node sources one uint64 into its group.
func BenchmarkMulticast(b *testing.B) {
	b.Run("n=4096", func(b *testing.B) {
		benchSession(b, func(s *Session, iters int) {
			me := s.Ctx.ID()
			trees := s.SetupTrees([]TreeItem{{Group: uint64((me + 1) % benchN), Origin: me}})
			for i := 0; i < iters; i++ {
				if got := Multicast(s, trees, true, uint64(me), uint64(i), U64Wire{}, 1); len(got) != 1 {
					panic("multicast lost a packet")
				}
			}
		})
	})
}

// BenchmarkAggregateAndBroadcast measures one Aggregate-and-Broadcast
// (Theorem 2.2) per op: a global Sum over one uint64 per node, result
// delivered everywhere.
func BenchmarkAggregateAndBroadcast(b *testing.B) {
	b.Run("n=4096", func(b *testing.B) {
		benchSession(b, func(s *Session, iters int) {
			for i := 0; i < iters; i++ {
				if v, ok := AggregateAndBroadcast(s, uint64(1), true, Sum); !ok || v != benchN {
					panic("bad aggregate-and-broadcast")
				}
			}
		})
	})
}
