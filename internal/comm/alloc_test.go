package comm

import (
	"runtime"
	"testing"

	"ncc/internal/ncc"
)

// TestCollectiveSteadyStateAllocs pins the zero-allocation property of the
// typed collectives, the analog of the engine's TestSteadyStateAllocs one
// layer up: once sessions and the pooled per-type router state have warmed
// up, extra iterations of a mixed Aggregate/Multicast/Aggregate-and-Broadcast
// workload must allocate ~nothing per delivered message — no payload boxing,
// no per-packet queue nodes, no codec garbage. It measures the allocation
// *difference* between a short and a long run of the same traffic shape, so
// one-time costs (session setup, butterfly, warm-up growth of the pooled
// state) cancel out.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	const (
		n        = 64
		warmup   = 6
		extra    = 10
		perMsgOK = 0.02
	)
	program := func(iters int) (func(), *ncc.Stats) {
		st := &ncc.Stats{}
		return func() {
			stats, err := ncc.Run(ncc.Config{N: n, Seed: 5, Workers: 1}, func(ctx *ncc.Context) {
				s := NewSession(ctx)
				me := ctx.ID()
				trees := s.SetupTrees([]TreeItem{{Group: uint64((me + 1) % n), Origin: me}})
				items := []Agg[uint64]{{Group: uint64((me + 3) % n), Target: (me + 3) % n, Val: uint64(me)}}
				sk := []Agg[Sketch3]{{Group: uint64(me % 7), Target: me % 7, Val: Sketch3{}}}
				for it := 0; it < iters; it++ {
					if got := Aggregate(s, items, Sum, 1); len(got) != 1 {
						panic("aggregate lost a group")
					}
					Aggregate(s, sk, MergeSketch3, 7)
					if got := Multicast(s, trees, true, uint64(me), uint64(it), U64Wire{}, 1); len(got) != 1 {
						panic("multicast lost a packet")
					}
					if v, ok := AggregateAndBroadcast(s, uint64(1), true, Sum); !ok || v != n {
						panic("bad aggregate-and-broadcast")
					}
				}
			})
			if err != nil {
				panic(err)
			}
			*st = stats
		}, st
	}

	shortFn, shortStats := program(warmup)
	longFn, longStats := program(warmup + extra)
	short := testing.AllocsPerRun(3, shortFn)
	long := testing.AllocsPerRun(3, longFn)

	extraMsgs := float64(longStats.Messages - shortStats.Messages)
	if extraMsgs <= 0 {
		t.Fatalf("bad message accounting: short=%d long=%d", shortStats.Messages, longStats.Messages)
	}
	perMsg := (long - short) / extraMsgs
	t.Logf("allocs: short=%v long=%v over %v extra messages -> %.5f allocs/message",
		short, long, extraMsgs, perMsg)
	if perMsg > perMsgOK {
		t.Errorf("steady-state collectives allocate %.5f allocs/message (limit %v): "+
			"the typed zero-copy primitive layer regressed", perMsg, perMsgOK)
	}
}

// TestCollectiveColdBytesPerNode pins the per-node working set that the
// routing collectives allocate in one run from a cold session: one
// Aggregate, one SetupTrees and one Multicast at n=256. Session setup is
// measured by a run that stops after NewSession and subtracted, so the
// figure is what the three collectives themselves allocate per node
// (router level queues, delivery plans, tree storage, pooled families and
// result buffers). The bound sits a little above the measured figure: it
// fails when a structure is again pre-sized beyond what it holds.
func TestCollectiveColdBytesPerNode(t *testing.T) {
	const (
		n      = 256
		per    = 4
		groups = 64
		limit  = 5000 // bytes per node; measured 4,336 (4,360 under -race) with go1.24, and 6,816 with pre-sized level queues, per-round plan buckets and map-based trees
	)
	run := func(collectives bool) uint64 {
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := ncc.Run(ncc.Config{N: n, Seed: 9, Workers: 1}, func(ctx *ncc.Context) {
				s := NewSession(ctx)
				if !collectives {
					return
				}
				me := ctx.ID()
				items := make([]Agg[uint64], per)
				for j := range items {
					g := uint64((me*7 + j*13) % groups)
					items[j] = Agg[uint64]{Group: g, Target: int(g), Val: 1}
				}
				Aggregate(s, items, Sum, 1)
				trees := s.SetupTrees([]TreeItem{{Group: uint64((me + 1) % n), Origin: me}})
				if got := Multicast(s, trees, true, uint64(me), uint64(me), U64Wire{}, 1); len(got) != 1 {
					panic("multicast lost a packet")
				}
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	base, full := run(false), run(true)
	perNode := float64(full-base) / n
	t.Logf("session setup %d B, with the collectives %d B: %.0f B per node", base, full, perNode)
	if perNode > limit {
		t.Errorf("the collectives allocate %.0f B per node in a cold run (limit %d)", perNode, limit)
	}
}
