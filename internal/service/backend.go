package service

import (
	"context"
	"errors"
	"log/slog"
	"sync"
)

// ExecBackend is what differs between a daemon that runs jobs itself
// (LocalBackend) and a coordinator that proxies them to worker daemons
// (RemoteBackend): how a job waits for a free slot, and how it runs in one.
// The rest of a job's life is the pipeline's.
type ExecBackend interface {
	// acquire blocks until a slot is free and reserves it, or returns nil
	// once cancel fires.
	acquire(cancel <-chan struct{}) slot

	// Capacity reports the backend's execution capacity for metrics: the
	// total worker budget and the currently free share. For LocalBackend
	// these are engine-worker tokens; for RemoteBackend, cluster job slots.
	Capacity() (total, free int)
}

// slot is one job's reserved place in a backend.
type slot interface {
	// run drives the running job j to a terminal state, which it returns
	// with the failure cause for the pipeline's finish to set, and frees
	// the slot.
	run(j *Job) (State, string)

	// release frees the slot unused.
	release()
}

// errQueueFull rejects submissions beyond the queue limit.
var errQueueFull = errors.New("job queue is full")

// pipeline carries every queued job of a Server through its lifecycle
// (queued -> running -> done/failed/canceled): a bounded FIFO queue, one
// dispatcher that moves the head job into a backend slot, one goroutine per
// running job, and one finish for every job that leaves the queue.
type pipeline struct {
	backend ExecBackend
	queue   chan *Job
	wg      sync.WaitGroup // the dispatcher and every running job
	cache   *cache
	m       *metrics
	log     *slog.Logger
}

func newPipeline(b ExecBackend, queueLimit int, c *cache, m *metrics, log *slog.Logger) *pipeline {
	p := &pipeline{backend: b, queue: make(chan *Job, queueLimit), cache: c, m: m, log: log}
	p.wg.Add(1)
	go p.dispatch()
	return p
}

// submit enqueues a queued job without blocking, or fails with errQueueFull
// and the caller rolls the admission back. A job counts in the queued gauge
// until it has a slot, the head job the dispatcher holds included, so
// bounding the gauge by the channel's capacity leaves the send room. The
// caller serializes submit against itself and against drain (the JobStore's
// admission lock), so the check holds until the send, and sending on a closed
// queue cannot happen.
func (p *pipeline) submit(j *Job) error {
	if p.m.jobsQueued.Load() >= int64(cap(p.queue)) {
		return errQueueFull
	}
	p.m.jobsQueued.Add(1)
	p.queue <- j
	return nil
}

// dispatch moves jobs from the queue into backend slots, strictly FIFO: the
// head job waits for a free slot, then runs on its own goroutine so jobs
// overlap.
func (p *pipeline) dispatch() {
	defer p.wg.Done()
	for j := range p.queue {
		// A twin of this job may have completed while it sat in the queue
		// (admission checks the cache once, before enqueueing). Serving the
		// landed result here takes no slot, which matters most for
		// campaigns, whose deduped units often repeat recently finished
		// hashes.
		if lines, trace, ok := p.cache.get(j.Hash); ok {
			p.m.jobsQueued.Add(-1)
			state := StateCanceled // canceled while queued: stays canceled
			if j.completeFromCache(lines, trace) {
				p.m.dispatchCacheHits.Add(1)
				state = StateDone
			}
			p.finish(j, state, "")
			continue
		}
		s := p.backend.acquire(j.cancel)
		p.m.jobsQueued.Add(-1)
		if s == nil {
			// Canceled while waiting for a slot; Job.Cancel already flipped
			// the queued job to canceled.
			p.finish(j, StateCanceled, "")
			continue
		}
		if !j.setRunning() {
			s.release()
			p.finish(j, StateCanceled, "")
			continue
		}
		p.m.jobsRunning.Add(1)
		p.log.Info("job running", "job", j.ID, "trace", j.TraceID)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			state, msg := s.run(j)
			p.finish(j, state, msg)
			p.m.jobsRunning.Add(-1)
		}()
	}
}

// finish ends j, which has left the queue, in state, and counts and logs it.
// A job that ran to completion fills the cache first, so a client that
// resubmits the moment the job's stream ends hits the cache. A job the
// dispatcher completed from the cache is only counted.
func (p *pipeline) finish(j *Job, state State, msg string) {
	info := j.Info()
	if state == StateDone && !info.Cached {
		lines, trace := j.logs()
		if err := p.cache.put(j.Hash, lines, trace); err != nil {
			// Disk persistence is best-effort; the in-memory entry is in place.
			p.m.cacheWriteErrors.Add(1)
		}
	}
	j.finish(state, msg)
	switch state {
	case StateDone:
		p.m.jobsDone.Add(1)
		if !info.Cached {
			p.m.jobLatency.observeSince(j.Submitted)
		}
		p.log.Info("job done", "job", j.ID, "trace", j.TraceID, "records", info.Records)
	case StateFailed:
		p.m.jobsFailed.Add(1)
		p.log.Error("job failed", "job", j.ID, "trace", j.TraceID, "cause", msg)
	case StateCanceled:
		p.m.jobsCanceled.Add(1)
		p.log.Info("job canceled", "job", j.ID, "trace", j.TraceID)
	}
}

// drain stops the dispatcher once the queue is empty and waits for every
// running job. If ctx expires first, cancelAll is invoked (the server cancels
// every live job) and drain waits for the now-short tail before returning
// ctx.Err. The caller has already stopped new admissions.
func (p *pipeline) drain(ctx context.Context, cancelAll func()) error {
	close(p.queue)
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
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
