package kmachine

import (
	"fmt"
	"testing"
	"time"

	"ncc/internal/comm"
	"ncc/internal/core"
	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/verify"
)

func TestSimulatePreservesAlgorithmOutput(t *testing.T) {
	g := graph.KForest(32, 2, 3)
	wg := graph.RandomWeights(g, 100, 4)
	perNode := make([][][2]int, g.N())
	cfg := ncc.Config{N: g.N(), Seed: 7}
	res, st, err := Simulate(4, 8, cfg, func(ctx *ncc.Context) {
		perNode[ctx.ID()] = core.MST(comm.NewSession(ctx), wg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MST(wg, core.CollectMSTEdges(perNode)); err != nil {
		t.Fatalf("MST corrupted by simulation accounting: %v", err)
	}
	if res.NCCRounds != st.Rounds {
		t.Errorf("NCCRounds %d != stats rounds %d", res.NCCRounds, st.Rounds)
	}
	if res.KRounds < int64(res.NCCRounds) {
		t.Errorf("k-rounds %d below NCC rounds %d (each NCC round costs at least one)", res.KRounds, res.NCCRounds)
	}
	if res.CrossMessages+res.IntraMessages != st.Messages {
		t.Errorf("message accounting mismatch: %d + %d != %d", res.CrossMessages, res.IntraMessages, st.Messages)
	}
}

// TestAccountantWorkerInvariant: the accountant reads the round's traffic
// through per-shard views whose partition depends on Workers; its Result
// must not.
func TestAccountantWorkerInvariant(t *testing.T) {
	g := graph.Grid(6, 6)
	program := func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		o := core.Orient(s, g, core.OrientParams{})
		trees, lhat := core.BroadcastTrees(s, g, o)
		core.BFS(s, g, trees, lhat, 0)
	}
	var base Result
	for _, w := range []int{1, 2, 8} {
		res, _, err := Simulate(4, 4, ncc.Config{N: g.N(), Seed: 5, Workers: w}, program)
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			base = res
			if res.CrossMessages == 0 || res.KRounds <= int64(res.NCCRounds) {
				t.Fatalf("workers=1: %+v, want cross-machine traffic costing extra k-rounds", res)
			}
		} else if res != base {
			t.Errorf("workers=%d: %+v, want %+v", w, res, base)
		}
	}
}

func TestMoreMachinesLessWork(t *testing.T) {
	// Corollary 2: k-rounds fall roughly like 1/k^2 (until the 1-per-round
	// floor dominates). Check monotonicity over a k sweep.
	g := graph.Grid(6, 6)
	program := func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		o := core.Orient(s, g, core.OrientParams{})
		trees, lhat := core.BroadcastTrees(s, g, o)
		core.BFS(s, g, trees, lhat, 0)
	}
	var prev int64
	for _, k := range []int{2, 4, 8} {
		cfg := ncc.Config{N: g.N(), Seed: 5}
		res, _, err := Simulate(k, 4, cfg, program)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && res.KRounds > prev {
			t.Errorf("k=%d: KRounds %d worse than with fewer machines (%d)", k, res.KRounds, prev)
		}
		prev = res.KRounds
	}
}

func TestSingleMachineIsFree(t *testing.T) {
	// With k=1 everything is intra-machine: cost collapses to the barrier.
	cfg := ncc.Config{N: 16, Seed: 1}
	res, st, err := Simulate(1, 4, cfg, func(ctx *ncc.Context) {
		s := comm.NewSession(ctx)
		s.AnyTrue(ctx.ID() == 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossMessages != 0 {
		t.Errorf("cross messages %d on a single machine", res.CrossMessages)
	}
	if res.KRounds != int64(st.Rounds) {
		t.Errorf("KRounds %d, want %d", res.KRounds, st.Rounds)
	}
}

func TestBadParams(t *testing.T) {
	if _, _, err := Simulate(0, 4, ncc.Config{N: 4}, func(*ncc.Context) {}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := Simulate(2, 0, ncc.Config{N: 4}, func(*ncc.Context) {}); err == nil {
		t.Error("bandwidth=0 accepted")
	}
	if _, _, err := Simulate(MaxMachines+1, 4, ncc.Config{N: 4}, func(*ncc.Context) {}); err == nil {
		t.Errorf("k=%d accepted", MaxMachines+1)
	}
}

func TestPartitionBalance(t *testing.T) {
	cfg := ncc.Config{N: 1000, Seed: 3}
	res, _, err := Simulate(10, 4, cfg, func(ctx *ncc.Context) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMachineNodes < 100/2 || res.MaxMachineNodes > 2*100 {
		t.Errorf("random partition badly unbalanced: max machine holds %d of 1000", res.MaxMachineNodes)
	}
}

// BenchmarkAccountant measures what k-machine accounting adds to a dense
// run: n=1024, every node sends Cap() 3-word messages for 20 rounds, with
// the accountant attached (k=4) and without it. The first two sub-benchmarks
// give each side's B/op; accountant=paired times both sides within each
// iteration, alternating which runs first, so its ratio is not skewed by
// host drift between the two.
//
//	go test ./internal/kmachine -run '^$' -bench Accountant -benchmem
func BenchmarkAccountant(b *testing.B) {
	const n, rounds = 1024, 20
	program := func(ctx *ncc.Context) {
		var w [3]uint64
		for r := 0; r < rounds; r++ {
			for k := 1; k <= ctx.Cap(); k++ {
				w[0] = uint64(k)
				ctx.SendWords((ctx.ID()+k)%n, w[:])
			}
			ctx.EndRound()
		}
	}
	run := func(b *testing.B, on bool) {
		cfg := ncc.Config{N: n, Seed: 1}
		var err error
		if on {
			_, _, err = Simulate(4, 4, cfg, program)
		} else {
			_, err = ncc.Run(cfg, program)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("accountant=%v", on), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, on)
			}
		})
	}
	b.Run("accountant=paired", func(b *testing.B) {
		var spent [2]time.Duration // [bare, accountant]
		for i := 0; i < b.N; i++ {
			for j := 0; j < 2; j++ {
				side := (i + j) % 2
				t0 := time.Now()
				run(b, side == 1)
				spent[side] += time.Since(t0)
			}
		}
		b.ReportMetric(0, "ns/op") // the sum of both sides says nothing
		b.ReportMetric(float64(spent[0].Nanoseconds())/float64(b.N), "bare-ns/op")
		b.ReportMetric(float64(spent[1].Nanoseconds())/float64(b.N), "accountant-ns/op")
		b.ReportMetric(float64(spent[1])/float64(spent[0]), "ratio")
	})
}
