package comm

import (
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
