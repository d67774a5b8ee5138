package nccrepro

// Raw-engine benchmarks of the paper's primitives and capacity bounds: each
// runs one communication pattern through ncc.Run directly and reports the
// model's cost metrics (rounds/op, msgs/op, maxRecvLoad/op, plus
// primitive-specific ones) via b.ReportMetric; ns/op measures only the
// simulator. The paper's evaluation tables for registered algorithms are
// regenerated by campaigns/paper.json (`go run ./cmd/ncccampaign -spec
// campaigns/paper.json`), not here.

import (
	"fmt"
	"strconv"
	"testing"

	"ncc/internal/baseline"
	"ncc/internal/comm"
	"ncc/internal/core"
	"ncc/internal/graph"
	"ncc/internal/ncc"
)

func report(b *testing.B, st ncc.Stats) {
	b.ReportMetric(float64(st.Rounds), "rounds/op")
	b.ReportMetric(float64(st.Messages), "msgs/op")
	b.ReportMetric(float64(st.MaxRecvOffered), "maxRecvLoad/op")
	if st.Dropped() != 0 {
		b.Fatalf("benchmark run dropped %d messages", st.Dropped())
	}
}

// BenchmarkAggregateBroadcast regenerates experiment E-AAB (Theorem 2.2).
// aabRounds/op counts the rounds after session setup, the primitive alone.
func BenchmarkAggregateBroadcast(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(sizeName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				setup := 0 // written by node 0 only; read after Run returns
				st, err := ncc.Run(ncc.Config{N: n, Seed: 1, Strict: true}, func(ctx *ncc.Context) {
					s := comm.NewSession(ctx)
					if ctx.ID() == 0 {
						setup = ctx.Round()
					}
					comm.AggregateAndBroadcast(s, uint64(1), true, comm.Sum)
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, st)
				b.ReportMetric(float64(st.Rounds-setup), "aabRounds/op")
			}
		})
	}
}

// BenchmarkAggregation regenerates experiment E-AGG (Theorem 2.3): load sweep.
func BenchmarkAggregation(b *testing.B) {
	const n = 128
	for _, members := range []int{1, 4, 16} {
		b.Run(sizeName("members", members), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := ncc.Run(ncc.Config{N: n, Seed: 13, Strict: true}, func(ctx *ncc.Context) {
					s := comm.NewSession(ctx)
					me := ctx.ID()
					var items []comm.Agg[uint64]
					for j := 0; j < members; j++ {
						g := (me + j*37 + 1) % n
						items = append(items, comm.Agg[uint64]{Group: uint64(g), Target: g, Val: 1})
					}
					if len(comm.Aggregate(s, items, comm.Sum, members)) == 0 {
						panic("aggregation produced no result")
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, st)
			}
		})
	}
}

// BenchmarkTreeSetupAndMulticast regenerates E-TREE and E-MC (Thms 2.4/2.5):
// congestion/op is the tree setup's congestion, multicastRounds/op the rounds
// of the multicast over those trees.
func BenchmarkTreeSetupAndMulticast(b *testing.B) {
	const n = 128
	for _, members := range []int{1, 4, 16} {
		b.Run(sizeName("members", members), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				congestion, mcRounds := 0, 0 // written by node 0 only
				st, err := ncc.Run(ncc.Config{N: n, Seed: 17, Strict: true}, func(ctx *ncc.Context) {
					s := comm.NewSession(ctx)
					me := ctx.ID()
					var items []comm.TreeItem
					for j := 0; j < members; j++ {
						items = append(items, comm.TreeItem{Group: uint64((me + j*13 + 1) % n), Origin: me})
					}
					trees := s.SetupTrees(items)
					c, _ := s.MaxAll(uint64(trees.Congestion()), true)
					before := ctx.Round()
					got := comm.Multicast(s, trees, true, uint64(me), uint64(me), comm.U64Wire{}, members)
					if len(got) != members {
						panic(fmt.Sprintf("node got %d multicasts, want %d", len(got), members))
					}
					if me == 0 {
						congestion, mcRounds = int(c), ctx.Round()-before
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, st)
				b.ReportMetric(float64(congestion), "congestion/op")
				b.ReportMetric(float64(mcRounds), "multicastRounds/op")
			}
		})
	}
}

// BenchmarkMultiAggregation regenerates E-MC's Theorem 2.6 half over
// orientation-built broadcast trees.
func BenchmarkMultiAggregation(b *testing.B) {
	g := graph.KForest(96, 2, 9)
	b.Run("kforest96", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := ncc.Run(ncc.Config{N: g.N(), Seed: 19, Strict: true}, func(ctx *ncc.Context) {
				s := comm.NewSession(ctx)
				o := core.Orient(s, g, core.OrientParams{})
				trees, _ := core.BroadcastTrees(s, g, o)
				comm.MultiAggregate(s, trees, true, uint64(ctx.ID()), uint64(ctx.ID()), comm.Min)
			})
			if err != nil {
				b.Fatal(err)
			}
			report(b, st)
		}
	})
}

// BenchmarkGossip regenerates E-CAP's Theta(n/log n) gossip bound.
func BenchmarkGossip(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := ncc.Run(ncc.Config{N: n, CapFactor: 1, Seed: 3, Strict: true}, func(ctx *ncc.Context) {
					baseline.Gossip(ctx, uint64(ctx.ID()))
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, st)
			}
		})
	}
}

// BenchmarkBroadcast compares direct Theta(n/cap) against butterfly O(log n)
// broadcast (E-CAP).
func BenchmarkBroadcast(b *testing.B) {
	const n = 1024
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := ncc.Run(ncc.Config{N: n, CapFactor: 1, Seed: 3, Strict: true}, func(ctx *ncc.Context) {
				baseline.DirectBroadcast(ctx, 0, 5)
			})
			if err != nil {
				b.Fatal(err)
			}
			report(b, st)
		}
	})
	b.Run("butterfly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := ncc.Run(ncc.Config{N: n, CapFactor: 1, Seed: 3, Strict: true}, func(ctx *ncc.Context) {
				baseline.ButterflyBroadcast(comm.NewSession(ctx), 0, 5)
			})
			if err != nil {
				b.Fatal(err)
			}
			report(b, st)
		}
	})
}

// BenchmarkTreeSetupStar is ablation A1: naive vs orientation-based
// broadcast-tree setup on the paper's star worst case.
func BenchmarkTreeSetupStar(b *testing.B) {
	star := graph.Star(256)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := ncc.Run(ncc.Config{N: star.N(), Seed: 31, Strict: true}, func(ctx *ncc.Context) {
				baseline.NaiveTreeSetup(comm.NewSession(ctx), star)
			})
			if err != nil {
				b.Fatal(err)
			}
			report(b, st)
		}
	})
	b.Run("oriented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := ncc.Run(ncc.Config{N: star.N(), Seed: 31, Strict: true}, func(ctx *ncc.Context) {
				s := comm.NewSession(ctx)
				o := core.Orient(s, star, core.OrientParams{})
				core.BroadcastTrees(s, star, o)
			})
			if err != nil {
				b.Fatal(err)
			}
			report(b, st)
		}
	})
}

func sizeName(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}
