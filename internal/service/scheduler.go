package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"ncc/internal/graph"
	"ncc/internal/ncc"
	"ncc/internal/obs"
	"ncc/internal/param"
	"ncc/internal/scenario"
)

// tokenPool is the global engine-worker budget shared by every job. A run
// acquires between 1 and want tokens — whatever is free — and sets the
// engine's worker count to what it got, so a huge sweep consumes the whole
// budget only while nothing else is waiting. Acquisition is strictly FIFO
// (ticket-ordered): a small job that arrives while a 1M-node sweep holds the
// budget is first in line the moment the sweep's current run returns its
// tokens, and the sweep's next run queues behind it — between-run yields
// bound a small request's wait by one run, never by a whole sweep.
type tokenPool struct {
	mu            sync.Mutex
	cond          sync.Cond
	free          int
	next, serving uint64
}

func newTokenPool(budget int) *tokenPool {
	p := &tokenPool{free: budget}
	p.cond.L = &p.mu
	return p
}

// acquire blocks until this caller is first in line and at least one token is
// free, then takes min(want, free) tokens and returns the count.
func (p *tokenPool) acquire(want int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	ticket := p.next
	p.next++
	for p.serving != ticket || p.free == 0 {
		p.cond.Wait()
	}
	p.serving++
	got := min(max(1, want), p.free)
	p.free -= got
	p.cond.Broadcast() // the next ticket may proceed if tokens remain
	return got
}

func (p *tokenPool) release(n int) {
	p.mu.Lock()
	p.free += n
	p.cond.Broadcast()
	p.mu.Unlock()
}

// available reports the currently unassigned tokens (metrics).
func (p *tokenPool) available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free
}

// LocalBackend executes jobs in-process on a fixed set of executor goroutines
// pulling from a bounded FIFO queue. Each job's expanded runs execute
// sequentially (the record stream is ordered), while distinct jobs proceed
// concurrently, competing for engine workers through the token pool. It is
// the ExecBackend of a plain nccd and of every nccd worker in a cluster.
type LocalBackend struct {
	budget int
	queue  chan *Job
	pool   *tokenPool
	wg     sync.WaitGroup
	m      *metrics
	cache  CacheTier
	log    *slog.Logger
}

func newLocalBackend(budget, executors, queueLimit int, c CacheTier, m *metrics, log *slog.Logger) *LocalBackend {
	b := &LocalBackend{
		budget: budget,
		queue:  make(chan *Job, queueLimit),
		pool:   newTokenPool(budget),
		m:      m,
		cache:  c,
		log:    log,
	}
	for i := 0; i < executors; i++ {
		b.wg.Add(1)
		go b.executor()
	}
	return b
}

// errQueueFull rejects submissions beyond the queue limit.
var errQueueFull = errors.New("job queue is full")

// Submit adds a job without blocking. The caller serializes Submit against
// Drain (the JobStore's admission lock), so sending on a closed queue cannot
// happen.
func (b *LocalBackend) Submit(j *Job) error {
	select {
	case b.queue <- j:
		b.m.jobsQueued.Add(1)
		return nil
	default:
		return errQueueFull
	}
}

// Capacity reports the engine-worker budget and its free share.
func (b *LocalBackend) Capacity() (total, free int) {
	return b.budget, b.pool.available()
}

func (b *LocalBackend) executor() {
	defer b.wg.Done()
	for j := range b.queue {
		b.m.jobsQueued.Add(-1)
		b.runJob(j)
	}
}

// workersFor decides how many engine workers a run would ideally use: its
// model's explicit choice capped by the graph size, or else the engine's own
// default for that size (ncc.DefaultWorkers), and never more than the global
// budget. Tokens reserved here stay reserved for the whole run, so asking for
// more than the run can use would idle budget that other jobs are waiting on.
func (b *LocalBackend) workersFor(c scenario.Scenario) int {
	n := specNodeCount(c.Graph)
	if n < 1 {
		n = math.MaxInt // unsized graph: no cap from its size
	}
	want := c.Model.Workers
	if want <= 0 {
		want = ncc.DefaultWorkers(n)
	}
	return min(want, n, b.budget)
}

// specNodeCount estimates a graph spec's node count from its resolved
// parameters (defaults included), covering every registered family's sizing
// convention: n, rows*cols, n1+n2, parts*size, or 2^k for the hypercube.
// Returns 0 when the family is unknown or unsized — callers treat that as
// "no cap". This is a scheduling hint only; results never depend on it.
func specNodeCount(spec graph.Spec) int {
	f, ok := graph.GetFamily(spec.Family)
	if !ok {
		return 0
	}
	v, err := param.Resolve(spec.Params, f.Params)
	if err != nil {
		return 0
	}
	switch {
	case v["n"] >= 1:
		return int(v["n"])
	case v["rows"] >= 1 && v["cols"] >= 1:
		return int(v["rows"]) * int(v["cols"])
	case v["n1"] >= 1 || v["n2"] >= 1:
		return int(v["n1"]) + int(v["n2"])
	case v["parts"] >= 1 && v["size"] >= 1:
		return int(v["parts"]) * int(v["size"])
	case v["k"] >= 1: // hypercube: 2^k nodes (only sized by k alone)
		if k := int(v["k"]); k < 30 {
			return 1 << k
		}
	}
	return 0
}

func (b *LocalBackend) runJob(j *Job) {
	if !j.setRunning() {
		b.m.jobsCanceled.Add(1) // canceled while queued
		return
	}
	b.m.jobsRunning.Add(1)
	defer b.m.jobsRunning.Add(-1)
	b.log.Info("job running", "job", j.ID, "trace", j.TraceID)
	// Every executed job records its telemetry trace. The canonical lines are
	// deterministic (no timing lines here — the collector stays canonical-only
	// so local and cluster traces are byte-identical), so caching the trace
	// alongside the records preserves the replay guarantee.
	col := &obs.Collector{}
	// The probe below runs on the engine's coordinator goroutine; lastRound is
	// reset before each run so queue/build time is not charged to round 0.
	var lastRound time.Time
	probe := func(ncc.RoundSample, []ncc.ShardTiming) {
		b.m.roundDuration.observeSince(lastRound)
		lastRound = time.Now()
	}
	for _, c := range j.Scenario.Expand() {
		if j.canceled() {
			break
		}
		got := b.pool.acquire(b.workersFor(c))
		lastRound = time.Now()
		rec, err := scenario.RunTraced(c, col, scenario.RunOpts{Cancel: j.cancel, Workers: got, Probe: probe})
		b.pool.release(got)
		if err != nil {
			if errors.Is(err, ncc.ErrCanceled) {
				break
			}
			// Run failures are sweep entries, exactly as in a local sweep:
			// the record carries the error and the job continues.
			rec.Error = err.Error()
		}
		line, merr := json.Marshal(rec)
		if merr != nil {
			j.finish(StateFailed, fmt.Sprintf("encoding record: %v", merr))
			b.m.jobsFailed.Add(1)
			b.log.Error("job failed", "job", j.ID, "trace", j.TraceID, "err", merr)
			return
		}
		j.appendLine(line)
		b.m.recordsProduced.Add(1)
		if tl := col.TakeLines(); len(tl) > 0 {
			j.appendTraceLines(tl)
			b.m.traceLinesProduced.Add(int64(len(tl)))
		}
	}
	if j.canceled() {
		j.finish(StateCanceled, "")
		b.m.jobsCanceled.Add(1)
		b.log.Info("job canceled", "job", j.ID, "trace", j.TraceID)
		return
	}
	lines, trace := j.logs()
	if err := b.cache.put(j.Hash, lines, trace); err != nil {
		// Disk persistence is best-effort; the in-memory entry is in place.
		b.m.cacheWriteErrors.Add(1)
	}
	j.finish(StateDone, "")
	b.m.jobsDone.Add(1)
	b.m.jobLatency.observeSince(j.Submitted)
	b.log.Info("job done", "job", j.ID, "trace", j.TraceID, "records", j.lineCount())
}

// Drain stops the executors after the already-queued jobs finish. If ctx
// expires first, cancelAll is invoked (the server cancels every live job,
// which unwinds in-flight runs within one round barrier) and Drain waits for
// the now-short tail.
func (b *LocalBackend) Drain(ctx context.Context, cancelAll func()) error {
	close(b.queue)
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		cancelAll()
		<-done
		return ctx.Err()
	}
}
