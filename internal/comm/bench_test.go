package comm

import (
	"testing"

	"ncc/internal/ncc"
)

// Benchmarks for the typed collectives themselves (as opposed to the
// engine-level BenchmarkEngine* set in internal/ncc and the raw-engine
// primitive sweeps in the repo root): one session, every node performing b.N
// collective calls, so ns/op converges to the steady-state cost of one
// primitive invocation with session setup amortized away. ReportAllocs pins
// the zero-allocation property in the recorded numbers (allocs/op -> ~0 as
// b.N grows) and SetBytes reports payload throughput. CI gates the three
// n=4096 points and the router-heavy Aggregate point against
// BENCH_baseline.json via cmd/benchcheck.

const benchN = 4096

// benchSession runs node(s, b.N) on every node of an n-node clique and
// charges the whole run to the benchmark timer, reporting per-op message
// counts and payload bytes.
func benchSession(b *testing.B, n int, node func(s *Session, iters int)) {
	b.Helper()
	b.ReportAllocs()
	st, err := ncc.Run(ncc.Config{N: n, Seed: 1}, func(ctx *ncc.Context) {
		node(NewSession(ctx), b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Words * 8 / int64(b.N))
	b.ReportMetric(float64(st.Messages)/float64(b.N), "msgs/op")
}

// BenchmarkAggregate measures one Aggregation (Theorem 2.3) per op. At
// n=4096 every node contributes one uint64 to a distinct group, combined
// with Sum in-network: one packet per node, so the cost is mostly injection,
// tokens and delivery. The n=64 point is the shape of
// TestAggregateLargeLPinned, 1024 items per node into 16384 groups: many
// packets per butterfly column, so the cost is mostly the combining router.
func BenchmarkAggregate(b *testing.B) {
	b.Run("n=4096", func(b *testing.B) {
		benchSession(b, benchN, func(s *Session, iters int) {
			me := s.Ctx.ID()
			items := []Agg[uint64]{{Group: uint64((me + 3) % benchN), Target: (me + 3) % benchN, Val: uint64(me)}}
			for i := 0; i < iters; i++ {
				if got := Aggregate(s, items, Sum, 1); len(got) != 1 {
					panic("aggregate lost a group")
				}
			}
		})
	})
	b.Run("n=64,per=1024", func(b *testing.B) {
		const (
			n, per, groups = 64, 1024, 16384
			a, c           = 7919, 104729
		)
		benchSession(b, n, func(s *Session, iters int) {
			me := s.Ctx.ID()
			items := make([]Agg[uint64], per)
			for i := range items {
				g := uint64((me*a + i*c) % groups)
				items[i] = Agg[uint64]{Group: g, Target: int(g % n), Val: uint64(me*per + i)}
			}
			for i := 0; i < iters; i++ {
				Aggregate(s, items, Sum, groups/n)
			}
		})
	})
}

// BenchmarkMulticast measures one Multicast (Theorem 2.5) per op over trees
// set up once per session: every node sources one uint64 into its group.
func BenchmarkMulticast(b *testing.B) {
	b.Run("n=4096", func(b *testing.B) {
		benchSession(b, benchN, func(s *Session, iters int) {
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
		benchSession(b, benchN, func(s *Session, iters int) {
			for i := 0; i < iters; i++ {
				if v, ok := AggregateAndBroadcast(s, uint64(1), true, Sum); !ok || v != benchN {
					panic("bad aggregate-and-broadcast")
				}
			}
		})
	})
}
