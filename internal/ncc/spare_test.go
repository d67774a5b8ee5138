package ncc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// dropSpare empties spareMem, so the next run allocates all of its memory.
func dropSpare() { spareMem.Store(nil) }

// spareNodes is the node count of the spare, or 0 when there is none.
func spareNodes() int {
	if m := spareMem.Load(); m != nil {
		return len(m.nodes)
	}
	return 0
}

// spareBytes is the capacity, in bytes, of every arena and bucket the spare
// holds, or 0 when there is none.
func spareBytes() int {
	m := spareMem.Load()
	if m == nil {
		return 0
	}
	b := 0
	for i := range m.nodes {
		c := &m.nodes[i]
		b += cap(c.out)*envelopeBytes + cap(c.inbox)*int(unsafe.Sizeof(Received{})) +
			8*(cap(c.sendWords)+cap(c.inWords))
	}
	for _, bk := range m.buckets {
		b += cap(bk) * envelopeBytes
	}
	return b
}

// recycleProgram is a seeded random program with every input a recycled
// Context could carry over from an earlier run: it reads Round() before its
// first barrier, draws from Rand(), sends 1..4-word payloads to random peers
// (wide ones through both word arenas, with occasional receive overload),
// and sleeps in AwaitInput with finite deadlines, so every node finishes and
// the run ends cleanly. A node that starts with another run's round,
// deadline or buffer contents counts into stale.
func recycleProgram(stale *atomic.Int64) func(*Context, func([]Received)) {
	return func(ctx *Context, record func([]Received)) {
		if ctx.round != 0 || ctx.deadline != 0 ||
			len(ctx.out)+len(ctx.inbox)+len(ctx.sendWords)+len(ctx.inWords) != 0 {
			stale.Add(1)
		}
		record(nil) // the round the node starts in
		rng := ctx.Rand()
		ws := make([]uint64, 4)
		for step := 0; step < 12; step++ {
			for k := rng.IntN(ctx.Cap() + 1); k > 0; k-- {
				to := rng.IntN(ctx.N())
				if to == ctx.ID() {
					continue
				}
				w := 1 + rng.IntN(len(ws))
				for i := range ws[:w] {
					ws[i] = rng.Uint64()
				}
				ctx.SendWords(to, ws[:w])
			}
			if rng.IntN(3) == 0 {
				record(ctx.EndRound())
			} else {
				record(ctx.AwaitInput(ctx.Round() + 1 + rng.IntN(6)))
			}
		}
	}
}

// TestRecycledRunMatchesFresh runs config A on freshly allocated memory, then
// a differently shaped run B (fewer nodes, more workers, a fault plan that
// downs, kills and resets nodes, 8-word payloads and hot receivers), then A
// again on the memory B handed back. A's two runs must agree on Stats, the
// RoundSample series and every node's (round, inbox) sequence.
func TestRecycledRunMatchesFresh(t *testing.T) {
	cfgA := Config{N: 200, Seed: 5, Workers: 2, MaxWords: 4}
	cfgB := Config{N: 130, Seed: 9, Workers: 3, MaxWords: 8,
		FaultPlan: diffPlan{n: 130, seed: 9, sleeper: 0, sleeperKill: 3}}

	var stale atomic.Int64
	var slab [2]*Context
	runA := func(k int) diffResult {
		return runRecorded(cfgA, func(ctx *Context, record func([]Received)) {
			if ctx.ID() == 0 {
				slab[k] = ctx
			}
			recycleProgram(&stale)(ctx, record)
		})
	}

	dropSpare()
	fresh := runA(0)
	if fresh.err != "" || spareNodes() != cfgA.N {
		t.Fatalf("run A: error %q, spare of %d nodes, want none and %d", fresh.err, spareNodes(), cfgA.N)
	}
	st, err := Run(cfgB, func(ctx *Context) {
		rng := ctx.Rand()
		ws := make([]uint64, 8)
		for r := 0; r < 10; r++ {
			for k := 0; k < ctx.Cap(); k++ {
				to := rng.IntN(8) // nodes 0..7 are offered far more than Cap
				if to == ctx.ID() {
					continue
				}
				w := 1 + rng.IntN(len(ws))
				for i := range ws[:w] {
					ws[i] = rng.Uint64()
				}
				ctx.SendWords(to, ws[:w])
			}
			ctx.EndRound()
		}
	})
	if err != nil || st.DroppedRecvOverflow == 0 || st.NodesKilled == 0 || st.NodesRevived == 0 {
		t.Fatalf("run B: err %v, %d receive drops, %d kills, %d revivals; want a clean run with all three",
			err, st.DroppedRecvOverflow, st.NodesKilled, st.NodesRevived)
	}
	if spareNodes() != cfgA.N {
		t.Fatalf("after run B the spare has %d nodes, want A's slab of %d", spareNodes(), cfgA.N)
	}
	again := runA(1)
	if slab[0] != slab[1] {
		t.Fatal("the second run of A did not reuse the slab of the first")
	}
	if n := stale.Load(); n != 0 {
		t.Errorf("%d nodes started with state left over from an earlier run", n)
	}
	if d := diffResults(again, fresh); d != "" {
		t.Errorf("recycled run differs from fresh: %s", d)
	}
}

// TestWarmRunAllocations pins what recycling saves: a second identical dense
// run allocates less than a quarter of the bytes of the first, which pays
// for the node slab, the wake channels, outboxes, inboxes and buckets.
func TestWarmRunAllocations(t *testing.T) {
	const n, rounds = 4096, 6
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(Config{N: n, Seed: 1, CapFactor: 1}, func(ctx *Context) {
			for r := 0; r < rounds; r++ {
				for k := 1; k <= ctx.Cap(); k++ {
					ctx.SendWord((ctx.ID()+k)%ctx.N(), Word(k))
				}
				ctx.EndRound()
			}
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	dropSpare()
	cold := run()
	warm := run()
	t.Logf("first run %d B, second run %d B (%.1f%%)", cold, warm, 100*float64(warm)/float64(cold))
	if 4*warm >= cold {
		t.Errorf("second run allocated %d B, want under a quarter of the first run's %d B", warm, cold)
	}
}

// TestConcurrentRunsShareSpare runs two streams of runs in parallel; they
// race for the one spare, so each run either takes it or allocates, and a
// handoff that is not ordered, or memory a run still reads after handing it
// back, shows under -race. Both streams have a fault plan, whose Stats are
// read from the per-node arrays after the nodes exit. Every run must match
// its stream's first.
func TestConcurrentRunsShareSpare(t *testing.T) {
	runs := 12
	if testing.Short() {
		runs = 4
	}
	program := func(ctx *Context) uint64 {
		var sum uint64
		for r := 0; r < 5; r++ {
			for k := 1; k <= ctx.Cap(); k++ {
				ctx.SendWords((ctx.ID()+k)%ctx.N(), []uint64{uint64(k), ctx.Rand().Uint64(), uint64(r)})
			}
			for _, rc := range ctx.EndRound() {
				ws, _ := ctx.Words(&rc)
				sum = sum*31 + ws[1] + uint64(rc.From)
			}
		}
		return sum
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for s, n := range []int{300, 257} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{N: n, Seed: int64(s + 1), Workers: 1 + s, MaxWords: 3,
				FaultPlan: diffPlan{n: n, seed: uint64(s + 3), sleeper: 0, sleeperKill: 2}}
			var first string
			for i := 0; i < runs; i++ {
				out, st, err := Collect(cfg, program)
				if err != nil {
					errs <- err
					return
				}
				if i == 0 {
					first = fmt.Sprint(out, st.Unfinished, st.DownAtEnd)
				} else if fmt.Sprint(out, st.Unfinished, st.DownAtEnd) != first {
					errs <- fmt.Errorf("stream %d run %d: outputs differ from its first run", s, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSpareStaysBounded rotates a hot receiver over a stream of same-size
// runs: in each run every other node sends its full capacity of 3-word
// messages to one node, whose inbox and word arena are sized to all it was
// offered, and the hot node visits all eight shards, so every column of the
// bucket grid fills in turn. What the spare holds must not grow with the
// number of runs: after 16 runs it is at most twice what it held after the
// first.
func TestSpareStaysBounded(t *testing.T) {
	cfg := Config{N: 256, Seed: 1, Workers: 8, MaxWords: 3}
	dropSpare()
	var first, last int
	for k := 0; k < 16; k++ {
		hot := k * 37 % cfg.N
		_, err := Run(cfg, func(ctx *Context) {
			if ctx.ID() != hot {
				for i := 0; i < ctx.Cap(); i++ {
					ctx.SendWords(hot, []uint64{1, 2, uint64(i)})
				}
			}
			ctx.EndRound()
		})
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			first = spareBytes()
		}
		last = spareBytes()
	}
	t.Logf("spare after the first run %d B, after the last %d B", first, last)
	if first == 0 || last > 2*first {
		t.Errorf("spare holds %d B after 16 runs, want at most twice the %d B after the first", last, first)
	}
}

// TestSpareRules pins when a run keeps, replaces or drops the spare: it is
// reused only by runs of half to all of its node count, and an aborted run
// hands nothing back.
func TestSpareRules(t *testing.T) {
	run := func(n int, fail bool) {
		_, err := Run(Config{N: n, Seed: 1}, func(ctx *Context) {
			ctx.EndRound()
			if fail && ctx.ID() == 0 {
				panic("fail")
			}
			ctx.EndRound()
		})
		if (err != nil) != fail {
			t.Fatalf("run of %d nodes (fail %v): error %v", n, fail, err)
		}
	}
	dropSpare()
	steps := []struct {
		n     int
		fail  bool
		spare int
	}{
		{1000, false, 1000},
		{500, false, 1000}, // half the slab: reused, and handed back whole
		{499, false, 499},  // under half: the large slab is dropped
		{998, false, 998},  // the spare is too small: allocate
		{998, true, 0},     // aborted: nothing handed back
	}
	for _, s := range steps {
		run(s.n, s.fail)
		if got := spareNodes(); got != s.spare {
			t.Errorf("after a run of %d nodes (fail %v) the spare has %d nodes, want %d", s.n, s.fail, got, s.spare)
		}
	}
}
