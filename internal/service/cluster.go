package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ncc/internal/blob"
)

// WorkerInfo is the JSON view of a registered worker (GET /v1/workers).
type WorkerInfo struct {
	Name     string    `json:"name"`
	URL      string    `json:"url"`
	Capacity int       `json:"capacity"`
	Inflight int       `json:"inflight"`
	LastSeen time.Time `json:"lastSeen"`
}

// remoteWorker is one registered worker daemon. gone is closed exactly once —
// on heartbeat expiry, explicit deregistration, or a dispatch failure — and
// aborts every in-flight proxy request to the worker, so a dead worker's jobs
// re-dispatch promptly instead of stalling until their streams time out.
type remoteWorker struct {
	name     string
	url      string
	capacity int
	inflight int
	lastSeen time.Time
	joined   time.Time
	gone     chan struct{}
}

func (w *remoteWorker) free() int { return w.capacity - w.inflight }

// workerRegistry tracks live workers and hands out job slots. Placement is
// capacity-aware: acquire picks the live worker with the most free slots
// (ties broken by registration order), so jobs pulled FIFO from the queue
// spread across the fleet in proportion to each worker's advertised executor
// capacity.
type workerRegistry struct {
	mu      sync.Mutex
	cond    sync.Cond
	workers map[string]*remoteWorker // keyed by worker name
	ttl     time.Duration
}

func newWorkerRegistry(ttl time.Duration) *workerRegistry {
	r := &workerRegistry{workers: map[string]*remoteWorker{}, ttl: ttl}
	r.cond.L = &r.mu
	return r
}

// register upserts a worker; the same POST is registration and heartbeat. A
// re-registration under the same name but a new URL replaces the old entry
// (its in-flight proxies abort and re-dispatch).
func (r *workerRegistry) register(name, rawURL string, capacity int) {
	if capacity <= 0 {
		capacity = 1
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[name]; ok {
		if w.url == rawURL {
			w.lastSeen = now
			w.capacity = capacity
			r.cond.Broadcast()
			return
		}
		close(w.gone)
	}
	r.workers[name] = &remoteWorker{
		name:     name,
		url:      rawURL,
		capacity: capacity,
		lastSeen: now,
		joined:   now,
		gone:     make(chan struct{}),
	}
	r.cond.Broadcast()
}

// remove deregisters a worker by name, waking its in-flight proxies so their
// jobs re-dispatch. Reports whether the worker was registered.
func (r *workerRegistry) remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[name]
	if !ok {
		return false
	}
	close(w.gone)
	delete(r.workers, name)
	r.cond.Broadcast()
	return true
}

// fail drops a worker after a dispatch error (connection refused, broken
// stream). If the worker is actually alive it re-registers on its next
// heartbeat with a clean slate; if it is dead this beats waiting out the TTL.
func (r *workerRegistry) fail(w *remoteWorker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.workers[w.name]; ok && cur == w {
		close(w.gone)
		delete(r.workers, w.name)
		r.cond.Broadcast()
	}
}

// expire drops every worker whose last heartbeat is older than the TTL.
func (r *workerRegistry) expire() {
	cutoff := time.Now().Add(-r.ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	expired := false
	for name, w := range r.workers {
		if w.lastSeen.Before(cutoff) {
			close(w.gone)
			delete(r.workers, name)
			expired = true
		}
	}
	if expired {
		r.cond.Broadcast()
	}
}

// acquire blocks until a live worker has a free slot, reserves the slot, and
// returns the worker — or nil once cancel fires. Among workers with free
// slots it prefers the most free capacity, then the earliest joined.
func (r *workerRegistry) acquire(cancel <-chan struct{}) *remoteWorker {
	stop := make(chan struct{})
	defer close(stop)
	if cancel != nil {
		go func() {
			select {
			case <-cancel:
				r.mu.Lock()
				r.cond.Broadcast()
				r.mu.Unlock()
			case <-stop:
			}
		}()
	}
	canceled := func() bool {
		if cancel == nil {
			return false
		}
		select {
		case <-cancel:
			return true
		default:
			return false
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if canceled() {
			return nil
		}
		var best *remoteWorker
		for _, w := range r.workers {
			if w.free() <= 0 {
				continue
			}
			if best == nil || w.free() > best.free() ||
				(w.free() == best.free() && w.joined.Before(best.joined)) {
				best = w
			}
		}
		if best != nil {
			best.inflight++
			return best
		}
		r.cond.Wait()
	}
}

// release returns a slot reserved by acquire.
func (r *workerRegistry) release(w *remoteWorker) {
	r.mu.Lock()
	w.inflight--
	r.cond.Broadcast()
	r.mu.Unlock()
}

// snapshot lists the live workers for /v1/workers and /metrics, sorted by
// registration order.
func (r *workerRegistry) snapshot() []WorkerInfo {
	r.mu.Lock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerInfo{
			Name:     w.name,
			URL:      w.url,
			Capacity: w.capacity,
			Inflight: w.inflight,
			LastSeen: w.lastSeen,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sums reports the fleet's total and free job slots (metrics).
func (r *workerRegistry) sums() (total, free int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		total += w.capacity
		if f := w.free(); f > 0 {
			free += f
		}
	}
	return total, free
}

// RemoteBackend is the coordinator's ExecBackend: it holds no executors of
// its own; its slots are the job slots of registered worker daemons, and a
// job runs in one by proxying the worker's NDJSON record stream into the
// Job's line log — byte-identical to a local run, because workers stream the
// same marshaled Records a LocalBackend produces. When a worker dies mid-run
// (broken stream, missed heartbeats, deregistration) the job is re-dispatched
// to another worker: execution is deterministic and idempotent (keyed by the
// canonical scenario hash, deduped by the worker's own coalescing cache), so
// the retry replays an identical stream and the proxy skips the lines it
// already has.
type RemoteBackend struct {
	cfg      Config
	m        *metrics
	reg      *workerRegistry
	traces   *blob.Store   // the result cache's blob store; nil without CacheDir
	stopScan chan struct{} // stops the heartbeat-expiry loop
}

func newRemoteBackend(cfg Config, m *metrics, traces *blob.Store) *RemoteBackend {
	b := &RemoteBackend{
		cfg:      cfg,
		m:        m,
		reg:      newWorkerRegistry(cfg.WorkerTTL),
		traces:   traces,
		stopScan: make(chan struct{}),
	}
	go b.expiryLoop()
	return b
}

// expiryLoop sweeps the registry for workers that missed their heartbeats,
// until stop.
func (b *RemoteBackend) expiryLoop() {
	interval := max(b.cfg.WorkerTTL/4, 10*time.Millisecond)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			b.reg.expire()
		case <-b.stopScan:
			return
		}
	}
}

// stop ends the expiry loop; the server calls it once its jobs have drained.
func (b *RemoteBackend) stop() { close(b.stopScan) }

// api is the client of one worker's HTTP API. Workers run the same bearer
// guard as the coordinator, so it carries the shared cluster token.
func (b *RemoteBackend) api(w *remoteWorker) Client {
	return NewClusterClient(w.url, b.cfg.ClusterToken)
}

// Capacity reports the fleet's total and free job slots.
func (b *RemoteBackend) Capacity() (total, free int) {
	return b.reg.sums()
}

// acquire reserves a slot on the live worker with the most free slots (see
// workerRegistry.acquire).
func (b *RemoteBackend) acquire(cancel <-chan struct{}) slot {
	if w := b.reg.acquire(cancel); w != nil {
		return workerSlot{b, w}
	}
	return nil
}

// workerSlot is a job slot reserved on worker w.
type workerSlot struct {
	b *RemoteBackend
	w *remoteWorker
}

func (d workerSlot) release() { d.b.reg.release(d.w) }

// run drives j to a terminal state on d's worker, re-dispatching across
// worker failures up to the attempt bound.
func (d workerSlot) run(j *Job) (State, string) {
	b, w := d.b, d.w
	dispatched := time.Now()
	for attempt := 1; ; attempt++ {
		state, msg, err := b.runOn(j, w)
		b.reg.release(w)
		if err == nil {
			if state == StateDone {
				b.m.dispatchLatency.observeSince(dispatched)
			}
			return state, msg
		}
		// The dispatch failed below the job level: drop the worker (it
		// re-registers on its next heartbeat if it is actually alive) and try
		// the job elsewhere.
		b.cfg.Logger.Warn("dispatch attempt failed", "job", j.ID, "trace", j.TraceID, "worker", w.name, "attempt", attempt, "err", err)
		b.reg.fail(w)
		if j.canceled() {
			return StateCanceled, ""
		}
		if attempt >= b.cfg.JobAttempts {
			return StateFailed, fmt.Sprintf("dispatch attempt %d/%d on worker %s: %v", attempt, b.cfg.JobAttempts, w.name, err)
		}
		if w = b.reg.acquire(j.cancel); w == nil {
			return StateCanceled, ""
		}
	}
}

// runOn executes one dispatch attempt of j on w: submit the scenario, tail
// the record stream into the job's line log (skipping the replay prefix on a
// retry), and map the worker job's terminal state onto the coordinator job.
// A nil error means the job reached the returned terminal state; a non-nil
// error means the attempt failed for reasons a different worker may fix.
func (b *RemoteBackend) runOn(j *Job, w *remoteWorker) (State, string, error) {
	if j.canceled() {
		return StateCanceled, "", nil
	}
	b.cfg.Logger.Info("job dispatched", "job", j.ID, "trace", j.TraceID, "worker", w.name)
	wm := b.m.worker(w.name)
	wm.jobs.Add(1)
	api := b.api(w)

	// Every request of this attempt aborts when the worker is declared dead
	// or the attempt ends.
	ctx, stopReq := context.WithCancel(context.Background())
	defer stopReq()
	attemptDone := make(chan struct{})
	defer close(attemptDone)
	go func() {
		select {
		case <-w.gone:
			stopReq()
		case <-attemptDone:
		}
	}()

	remote, err := api.SubmitJob(ctx, j.Scenario)
	if err != nil {
		return "", "", fmt.Errorf("submitting: %w", err)
	}

	// The remote id is known: propagate a coordinator-side cancel to the
	// worker so its engine aborts within one round, then tear the stream down.
	go func() {
		select {
		case <-j.cancel:
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			api.CancelJob(cctx, remote.ID)
			cancel()
			stopReq()
		case <-attemptDone:
		}
	}()

	stream, err := api.Records(ctx, remote.ID)
	if err != nil {
		return "", "", fmt.Errorf("opening record stream: %w", err)
	}
	defer stream.Close()

	// On a retry the worker replays the full deterministic stream; skip the
	// lines the previous attempt already published so clients see one
	// seamless, byte-identical stream across the failover.
	skip := j.count(recordLog)
	sc := bufio.NewScanner(stream)
	sc.Buffer(nil, 16<<20) // starts small and grows to the longest record
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		j.append(recordLog, append([]byte(nil), line...))
		b.m.recordsProduced.Add(1)
		wm.records.Add(1)
	}
	if err := sc.Err(); err != nil {
		if j.canceled() {
			return StateCanceled, "", nil
		}
		return "", "", fmt.Errorf("record stream: %w", err)
	}

	// The record stream is complete; pull the job's telemetry trace before
	// settling its state, so a terminal job always has its full trace.
	if err := b.fetchTrace(ctx, j, w, remote.ID); err != nil {
		if j.canceled() {
			return StateCanceled, "", nil
		}
		return "", "", err
	}

	// Clean EOF: the worker job reached a terminal state — fetch it.
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	info, err := api.Job(sctx, remote.ID)
	if err != nil {
		if j.canceled() {
			return StateCanceled, "", nil
		}
		return "", "", fmt.Errorf("fetching job state: %w", err)
	}
	switch info.State {
	case StateDone:
		return StateDone, "", nil
	case StateFailed:
		return StateFailed, info.Error, nil
	case StateCanceled:
		if j.canceled() {
			return StateCanceled, "", nil
		}
		// The worker canceled unilaterally (draining): run elsewhere.
		return "", "", fmt.Errorf("worker canceled the job")
	default:
		return "", "", fmt.Errorf("stream ended with worker job %s still %s", remote.ID, info.State)
	}
}

// fetchTrace proxies the worker job's telemetry trace into j, byte-for-byte.
// The worker job is terminal when this runs (its record stream hit clean
// EOF), so the trace stream is complete and EOF-bounded. With a blob store
// the stream goes straight into it and j keeps a reference; without one it
// is read in one piece, and the published lines alias that buffer. The trace
// is deterministic, so a retry after a worker failure replays an identical
// stream: the in-memory path skips the prefix it already published, the same
// seamless-failover contract as the record stream, and a job that already
// holds a stored trace keeps it.
func (b *RemoteBackend) fetchTrace(ctx context.Context, j *Job, w *remoteWorker, remoteID string) error {
	if b.traces != nil {
		stored, err := b.storeTrace(ctx, j, w, remoteID)
		if stored || err != nil {
			return err
		}
	}
	rc, err := b.api(w).Trace(ctx, remoteID)
	if err != nil {
		return fmt.Errorf("opening trace stream: %w", err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return fmt.Errorf("trace stream: %w", err)
	}
	batch := splitLines(data, j.count(traceLog))
	j.append(traceLog, batch...)
	b.m.traceLinesProduced.Add(int64(len(batch)))
	return nil
}

// storeTrace streams the worker job's trace into the blob store and
// publishes it on j as a blob reference. It reports false, with no error,
// when the store cannot take the trace — a disk failure, or a stream that
// is not canonical NDJSON — and the caller keeps it in memory instead.
func (b *RemoteBackend) storeTrace(ctx context.Context, j *Job, w *remoteWorker, remoteID string) (bool, error) {
	if j.result().traceBlob.ok() {
		return true, nil
	}
	rc, err := b.api(w).Trace(ctx, remoteID)
	if err != nil {
		return false, fmt.Errorf("opening trace stream: %w", err)
	}
	defer rc.Close()
	body := &countingBody{r: rc}
	hash, err := b.traces.Put(body, func(*os.File, int64) error {
		if !body.lc.canonical() {
			return errNotCanonical
		}
		return nil
	})
	if body.err != nil {
		return false, fmt.Errorf("trace stream: %w", body.err)
	}
	if err != nil {
		b.cfg.Logger.Warn("trace kept in memory", "job", j.ID, "trace", j.TraceID, "err", err)
		return false, nil
	}
	j.setTraceBlob(blobRef{store: b.traces, hash: hash, lines: body.lc.lines})
	b.m.traceLinesProduced.Add(int64(body.lc.lines))
	return true, nil
}

// countingBody passes an HTTP body on, counting its NDJSON lines and
// keeping the first read error, which tells a broken stream from a failed
// disk write.
type countingBody struct {
	r   io.Reader
	lc  lineCounter
	err error
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.lc.Write(p[:n])
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}

// splitLines slices NDJSON data into lines that alias it: blank lines are
// skipped, a last line without its newline is kept, and the first skip
// non-blank lines are dropped (the replay offset of a retried dispatch).
func splitLines(data []byte, skip int) [][]byte {
	lines := make([][]byte, 0, bytes.Count(data, newline)+1)
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, newline)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		lines = append(lines, line)
	}
	return lines
}

// registerRequest is the body of POST /v1/workers: registration and
// heartbeat are the same call, upserted by name.
type registerRequest struct {
	Name     string `json:"name,omitempty"` // defaults to the URL's host:port
	URL      string `json:"url"`
	Capacity int    `json:"capacity,omitempty"` // job slots (worker executors); min 1
}

func (b *RemoteBackend) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req registerRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding registration: %v", err)
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		httpError(w, http.StatusBadRequest, "url %q is not an absolute http(s) URL", req.URL)
		return
	}
	name := req.Name
	if name == "" {
		name = u.Host
	}
	b.reg.register(name, strings.TrimRight(req.URL, "/"), req.Capacity)
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "ttl": b.cfg.WorkerTTL.String()})
}

func (b *RemoteBackend) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": b.reg.snapshot()})
}

func (b *RemoteBackend) handleDeregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !b.reg.remove(name) {
		httpError(w, http.StatusNotFound, "unknown worker %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}
