package ncc

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// spareNodes is the node count of the spare, or 0 when there is none.
func spareNodes() int {
	if m := spareMem.Load(); m != nil {
		return len(m.nodes)
	}
	return 0
}

// spareCoros is the number of coroutines the spare holds, its empty slots
// left out, or 0 when there is none.
func spareCoros() int {
	k := 0
	if m := spareMem.Load(); m != nil {
		for _, co := range m.coros {
			if co.next != nil {
				k++
			}
		}
	}
	return k
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
		return runRecorded(cfgA, true, func(ctx *Context, record func([]Received)) {
			if ctx.ID() == 0 {
				slab[k] = ctx
			}
			recycleProgram(&stale)(ctx, record)
		})
	}

	ReleaseSpare()
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

// TestWarmRunAllocations pins what recycling saves: after a GC, a second
// identical dense run allocates under 100 objects and under an eighth of the
// bytes of the first, which pays for the node slab, the node coroutines,
// outboxes, inboxes, buckets and the per-node scratch. What
// the second run allocates is per run and per pair of shards (the bucket
// grid), nothing per node: under 8 KiB + 64 B per shard pair. The GC between
// the runs empties the runtime's caches, as in a stream of runs with GCs
// between them: a suspended coroutine keeps what it needs through it.
func TestWarmRunAllocations(t *testing.T) {
	const n, rounds = 4096, 6
	run := func() (bytes, objects uint64) {
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
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	ReleaseSpare()
	cold, coldObjects := run()
	runtime.GC()
	warm, warmObjects := run()
	t.Logf("first run %d B in %d objects, second run %d B (%.1f%%) in %d objects",
		cold, coldObjects, warm, 100*float64(warm)/float64(cold), warmObjects)
	if warmObjects >= 100 {
		t.Errorf("second run allocated %d objects, want under 100", warmObjects)
	}
	if 8*warm >= cold {
		t.Errorf("second run allocated %d B, want under an eighth of the first run's %d B", warm, cold)
	}
	w := DefaultWorkers(n)
	if limit := uint64(8<<10 + 64*w*w); warm >= limit {
		t.Errorf("second run allocated %d B at %d workers, want under %d B: a per-node array is allocated per run", warm, w, limit)
	}
}

// TestSpareExecutorStacksShrink bounds what the node coroutines suspended in
// the spare cost between runs: after a run whose nodes grew their stacks to
// 64 KiB or more, at most 8 GCs bring the heap's stack bytes back to within
// twice restStack per spare node of their level before the run, because the
// runtime shrinks the stacks of suspended coroutines, like those of parked
// goroutines, when they use little of them.
func TestSpareExecutorStacksShrink(t *testing.T) {
	const n, deep = 1024, 64 << 10
	sample := []metrics.Sample{{Name: "/memory/classes/heap/stacks:bytes"}}
	stacks := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	ReleaseSpare()
	runtime.GC()
	before := stacks()
	_, err := Run(Config{N: n, Seed: 1}, func(ctx *Context) {
		growStack(deep)
		ctx.EndRound()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseSpare()
	limit := before + 2*restStack*uint64(spareNodes())
	grown := stacks()
	if spareNodes() != n || grown <= limit {
		t.Fatalf("after the run: spare of %d nodes, stacks %d B against %d B before; want %d nodes over %d B",
			spareNodes(), grown, before, n, limit)
	}
	after, gcs := grown, 0
	for ; gcs < 8 && after > limit; gcs++ {
		runtime.GC()
		after = stacks()
	}
	t.Logf("stacks: %d B before the run, %d B after it, %d B after %d GCs (limit %d B)", before, grown, after, gcs, limit)
	if after > limit {
		t.Errorf("suspended coroutines hold %d B of stacks after %d GCs, want at most %d B", after, gcs, limit)
	}
}

// restStack is the stack a suspended node coroutine shrinks to: the runtime
// halves a stack while what it uses, plus a reserve for nosplit functions,
// is under a quarter of it. iter.Pull's resting frames take some 450 B, so
// with the 800 B reserve a coroutine keeps 4 KiB. A race build doubles the
// reserve (see race_test.go), which keeps it at 8 KiB.
var restStack uint64 = 4 << 10

// growStack uses at least bytes of stack, in 1 KiB frames.
//
//go:noinline
func growStack(bytes int) byte {
	var frame [1024]byte
	frame[bytes%len(frame)] = byte(bytes)
	if bytes <= len(frame) {
		return frame[0]
	}
	return growStack(bytes-len(frame)) + frame[1]
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
	ReleaseSpare()
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
// hands back its memory too.
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
	ReleaseSpare()
	steps := []struct {
		n     int
		fail  bool
		spare int
	}{
		{1000, false, 1000},
		{500, false, 1000}, // half the slab: reused, and handed back whole
		{499, false, 499},  // under half: the large slab is dropped
		{998, false, 998},  // the spare is too small: allocate
		{998, true, 998},   // aborted: the slab and buckets handed back, without coroutines
	}
	for _, s := range steps {
		run(s.n, s.fail)
		if got := spareNodes(); got != s.spare {
			t.Errorf("after a run of %d nodes (fail %v) the spare has %d nodes, want %d", s.n, s.fail, got, s.spare)
		}
	}
}

// TestRunsLeakNoExecutor reuses a clean 500-node run's slab for 300-node
// runs that abort, once each by a node panic, Cancel and MaxRounds. An abort
// must hand back the slab with all 500 coroutines live, the 200 past the
// run's nodes too; once the spare is dropped, no goroutine of either run is
// left. Neither may runs whose node called runtime.Goexit,
// which leaves its coroutine suspended inside the Goexit, at one worker and
// at two, whether the run ends cleanly or aborts, nor a clean run followed by
// a larger one, which drops the smaller spare.
func TestRunsLeakNoExecutor(t *testing.T) {
	clean := func(t *testing.T, n int) {
		t.Helper()
		if _, err := Run(Config{N: n, Seed: 1}, func(ctx *Context) { ctx.EndRound() }); err != nil {
			t.Fatal(err)
		}
		if got := spareNodes(); got != n {
			t.Fatalf("after a clean run of %d nodes the spare has %d nodes", n, got)
		}
	}
	settle := func(t *testing.T, before int) {
		t.Helper()
		ReleaseSpare()
		if err := settleGoroutines(before); err != nil {
			t.Fatal(err)
		}
	}
	cancel := make(chan struct{})
	aborts := []struct {
		name    string
		cfg     Config
		program func(*Context)
	}{
		{"panic", Config{N: 300, Seed: 1}, func(ctx *Context) {
			ctx.EndRound()
			if ctx.ID() == 0 {
				panic("boom")
			}
			ctx.EndRound()
		}},
		{"cancel", Config{N: 300, Seed: 1, Cancel: cancel}, func(ctx *Context) {
			for {
				if ctx.ID() == 0 && ctx.Round() == 2 {
					close(cancel)
				}
				ctx.EndRound()
			}
		}},
		{"maxrounds", Config{N: 300, Seed: 1, MaxRounds: 5}, func(ctx *Context) {
			for {
				ctx.EndRound()
			}
		}},
	}
	for _, a := range aborts {
		t.Run(a.name, func(t *testing.T) {
			ReleaseSpare()
			before := runtime.NumGoroutine()
			clean(t, 500)
			if _, err := Run(a.cfg, a.program); err == nil {
				t.Fatal("the run did not abort")
			}
			if got := spareNodes(); got != 500 {
				t.Errorf("after the aborted run the spare has %d nodes, want the slab of 500", got)
			}
			if got, live := spareCoros(), runtime.NumGoroutine()-before; got != 500 || live < 500 {
				t.Errorf("after the aborted run the spare holds %d coroutines and %d goroutines are live, want 500 of each", got, live)
			}
			settle(t, before)
		})
	}
	// A program that calls runtime.Goexit ends as if it returned; its
	// coroutine is ended on a goroutine of its own, and a clean run hands back
	// a slab with an empty slot, which the next run fills.
	t.Run("goexit", func(t *testing.T) {
		for _, w := range []int{1, 2} {
			for _, abort := range []bool{false, true} {
				t.Run(fmt.Sprintf("w=%d/abort=%v", w, abort), func(t *testing.T) {
					ReleaseSpare()
					before := runtime.NumGoroutine()
					for k := 0; k < 2; k++ {
						_, err := runReturns(t, Config{N: 300, Seed: 1, Workers: w}, func(ctx *Context) {
							ctx.EndRound()
							if ctx.ID() == 3 {
								runtime.Goexit()
							}
							ctx.EndRound()
							if abort && ctx.ID() == 7 {
								panic("boom")
							}
							ctx.EndRound()
						})
						if (err != nil) != abort {
							t.Fatalf("run %d: error %v, want one: %v", k, err, abort)
						}
					}
					settle(t, before)
				})
			}
		}
	})
	t.Run("oversized", func(t *testing.T) {
		ReleaseSpare()
		before := runtime.NumGoroutine()
		clean(t, 100)
		clean(t, 300) // drops the spare of 100
		settle(t, before)
	})
}

// TestReleaseSpareRelabelsExecutors pins what profiling relies on: node
// coroutines carry the profiler labels of the goroutine whose run created
// them, whichever goroutine resumes them, a reused one keeps them, and after
// ReleaseSpare the next run creates coroutines that carry its caller's
// labels.
func TestReleaseSpareRelabelsExecutors(t *testing.T) {
	// executorLabels lists the label sets of the node coroutines, suspended
	// in execute, from the goroutine profile, which groups goroutines by
	// stack and labels.
	executorLabels := func() map[string]bool {
		var b strings.Builder
		if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
			t.Fatal(err)
		}
		sets := map[string]bool{}
		for _, group := range strings.Split(b.String(), "\n\n") {
			if !strings.Contains(group, "ncc.(*Context).execute+") {
				continue
			}
			labels := "none"
			for _, line := range strings.Split(group, "\n") {
				if l, ok := strings.CutPrefix(line, "# labels: "); ok {
					labels = l
				}
			}
			sets[labels] = true
		}
		return sets
	}
	runAs := func(label string) {
		pprof.Do(context.Background(), pprof.Labels("run", label), func(context.Context) {
			if _, err := Run(Config{N: 256, Seed: 1, Workers: 2}, func(ctx *Context) { ctx.EndRound() }); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := func(labels string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for got := executorLabels(); len(got) != 1 || !got[labels]; got = executorLabels() {
			if time.Now().After(deadline) {
				t.Fatalf("node coroutines carry the label sets %v, want only %s", got, labels)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ReleaseSpare()
	defer ReleaseSpare()
	runAs("a")
	want(`{"run":"a"}`)
	runAs("b") // reuses the coroutines of run a
	want(`{"run":"a"}`)
	ReleaseSpare()
	runAs("b")
	want(`{"run":"b"}`)
}

// runReturns runs program under cfg on a goroutine of its own and fails the
// test unless Run returns to that goroutine within 30 s: a runtime.Goexit
// that escaped a node's coroutine would end it instead.
func runReturns(t *testing.T, cfg Config, program func(*Context)) (Stats, error) {
	t.Helper()
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		st, err := Run(cfg, program)
		done <- result{st, err}
	}()
	select {
	case <-ended:
		select {
		case res := <-done:
			return res.st, res.err
		default:
			t.Fatalf("n=%d workers=%d: Run did not return to its caller: its goroutine exited", cfg.N, cfg.Workers)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("n=%d workers=%d: Run did not return", cfg.N, cfg.Workers)
	}
	return Stats{}, nil
}

// TestGoexitReturnsToCaller runs a program one of whose nodes calls
// runtime.Goexit at one worker, where Run's caller resumes every node
// itself, and at two, where delivery workers resume them. Run must return
// to its caller with the node counted as finished, and the next run must
// reuse the slab, with a new coroutine in the Goexit's slot.
func TestGoexitReturnsToCaller(t *testing.T) {
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			cfg := Config{N: 256, Seed: 1, Workers: w, FaultPlan: planFunc(func(int) ([]Outage, []Revival) { return nil, nil })}
			ReleaseSpare()
			defer ReleaseSpare()
			var slab [2]*Context
			for k := range slab {
				st, err := runReturns(t, cfg, func(ctx *Context) {
					if ctx.ID() == 0 {
						slab[k] = ctx
					}
					ctx.EndRound()
					if ctx.ID() == 5 {
						runtime.Goexit()
					}
					ctx.SendWord((ctx.ID()+1)%ctx.N(), 1)
					ctx.EndRound()
				})
				if err != nil || len(st.Unfinished) != 0 || st.Rounds != 2 {
					t.Fatalf("run %d: error %v, unfinished %v, %d rounds; want a clean run of 2 rounds", k, err, st.Unfinished, st.Rounds)
				}
			}
			if slab[0] != slab[1] {
				t.Error("the run after a Goexit did not reuse the slab")
			}
		})
	}
}

// TestNodePanicSurfacesAtFourWorkers pins the error a plan-less run returns
// when a node panics while four delivery workers resume the nodes: the
// panic fails the run with the node's id, its value and its stack.
func TestNodePanicSurfacesAtFourWorkers(t *testing.T) {
	_, err := runReturns(t, Config{N: 1024, Seed: 1, Workers: 4}, func(ctx *Context) {
		ctx.EndRound()
		if ctx.ID() == 777 {
			panic("boom")
		}
		ctx.EndRound()
	})
	if err == nil || !strings.HasPrefix(err.Error(), "ncc: node 777 panicked: boom\n") ||
		!strings.Contains(err.Error(), "TestNodePanicSurfacesAtFourWorkers") {
		t.Fatalf("Run returned %v, want the node 777 panic with its stack", err)
	}
}
