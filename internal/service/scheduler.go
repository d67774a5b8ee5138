package service

import (
	"encoding/json"
	"errors"
	"fmt"
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

// LocalBackend executes jobs in-process, one per slot of Config.Executors.
// Each job's expanded runs execute sequentially (the record stream is
// ordered), while distinct jobs proceed concurrently, competing for engine
// workers through the token pool. It is the ExecBackend of a plain nccd and
// of every nccd worker in a cluster; its slots are interchangeable, so the
// backend is its own slot.
type LocalBackend struct {
	budget int
	slots  chan struct{} // one element per occupied executor slot
	pool   *tokenPool
	m      *metrics
}

func newLocalBackend(budget, executors int, m *metrics) *LocalBackend {
	return &LocalBackend{
		budget: budget,
		slots:  make(chan struct{}, executors),
		pool:   newTokenPool(budget),
		m:      m,
	}
}

func (b *LocalBackend) acquire(cancel <-chan struct{}) slot {
	select {
	case b.slots <- struct{}{}:
		return b
	case <-cancel:
		return nil
	}
}

func (b *LocalBackend) release() { <-b.slots }

// Capacity reports the engine-worker budget and its free share.
func (b *LocalBackend) Capacity() (total, free int) {
	return b.budget, b.pool.available()
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

// run executes j's sweep in one executor slot.
func (b *LocalBackend) run(j *Job) (State, string) {
	defer b.release()
	// Every executed job records its telemetry trace. The canonical lines are
	// deterministic (no timing lines here — the collector stays canonical-only
	// so local and cluster traces are byte-identical), so caching the trace
	// alongside the records preserves the replay guarantee.
	col := &obs.Collector{}
	// The probe below runs on the engine's coordinator goroutine and feeds
	// every nccd_engine_* series; lastRound is reset before each run so
	// queue/build time is not charged to round 0.
	var lastRound time.Time
	probe := func(s ncc.RoundSample, _ []ncc.ShardTiming) {
		b.m.roundDuration.observeSince(lastRound)
		b.m.engineMessages.Add(int64(s.Messages))
		b.m.engineWords.Add(int64(s.Words))
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
			return StateFailed, fmt.Sprintf("encoding record: %v", merr)
		}
		j.append(recordLog, line)
		b.m.recordsProduced.Add(1)
		if tl := col.TakeLines(); len(tl) > 0 {
			j.append(traceLog, tl...)
			b.m.traceLinesProduced.Add(int64(len(tl)))
		}
	}
	if j.canceled() {
		return StateCanceled, ""
	}
	return StateDone, ""
}
