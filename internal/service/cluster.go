package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
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
// its own, instead sharding queued jobs across registered worker daemons and
// proxying each job's NDJSON record stream back into the Job's line log —
// byte-identical to a local run, because workers stream the same marshaled
// Records a LocalBackend produces. When a worker dies mid-run (broken stream,
// missed heartbeats, deregistration) the job is re-dispatched to another
// worker: execution is deterministic and idempotent (keyed by the canonical
// scenario hash, deduped by the worker's own coalescing cache), so the retry
// replays an identical stream and the proxy skips the lines it already has.
type RemoteBackend struct {
	cfg      Config
	m        *metrics
	cache    CacheTier
	reg      *workerRegistry
	queue    chan *Job
	client   *http.Client
	wg       sync.WaitGroup // dispatcher + in-flight proxies
	stopScan chan struct{}  // stops the heartbeat-expiry loop
}

func newRemoteBackend(cfg Config, c CacheTier, m *metrics) *RemoteBackend {
	b := &RemoteBackend{
		cfg:      cfg,
		m:        m,
		cache:    c,
		reg:      newWorkerRegistry(cfg.WorkerTTL),
		queue:    make(chan *Job, cfg.QueueLimit),
		client:   newClusterClient(),
		stopScan: make(chan struct{}),
	}
	b.wg.Add(1)
	go b.dispatcher()
	go b.expiryLoop()
	return b
}

// newClusterClient builds the coordinator→worker HTTP client. Job record
// streams are long-lived, so there is no whole-request timeout; instead the
// transport bounds the two places a dead worker could hang a dispatch
// forever: establishing the connection and waiting for response headers.
// Stalls after the headers are handled by the heartbeat expiry path, which
// cancels and re-dispatches the jobs of a worker that stops heartbeating.
func newClusterClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: 15 * time.Second,
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConnsPerHost:   8,
		},
	}
}

// expiryLoop sweeps the registry for workers that missed their heartbeats.
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

// authorize attaches the shared cluster token to a coordinator→worker request;
// workers run the same bearer guard as the coordinator.
func (b *RemoteBackend) authorize(req *http.Request) {
	if b.cfg.ClusterToken != "" {
		req.Header.Set("Authorization", "Bearer "+b.cfg.ClusterToken)
	}
}

// Submit enqueues a job for dispatch without blocking.
func (b *RemoteBackend) Submit(j *Job) error {
	select {
	case b.queue <- j:
		b.m.jobsQueued.Add(1)
		return nil
	default:
		return errQueueFull
	}
}

// Capacity reports the fleet's total and free job slots.
func (b *RemoteBackend) Capacity() (total, free int) {
	return b.reg.sums()
}

// dispatcher assigns queued jobs to workers strictly FIFO: each job blocks
// until the fleet has a free slot (capacity-aware placement happens inside
// acquire), then proxies on its own goroutine so streams overlap.
func (b *RemoteBackend) dispatcher() {
	defer b.wg.Done()
	for j := range b.queue {
		b.m.jobsQueued.Add(-1)
		// A twin of this job may have completed while it sat in the queue
		// (admission only checks the cache once, before enqueueing). Serving
		// the landed result here skips the dispatch entirely — no worker slot,
		// no proxy stream — which matters most for campaigns, whose deduped
		// units frequently re-enqueue recently finished hashes.
		if lines, trace, ok := b.cache.get(j.Hash); ok {
			if j.completeFromCache(lines, trace) {
				b.m.dispatchCacheHits.Add(1)
				b.m.jobsDone.Add(1)
				continue
			}
			b.m.jobsCanceled.Add(1)
			continue
		}
		w := b.reg.acquire(j.cancel)
		if w == nil {
			// Canceled while waiting for a slot; Job.Cancel already flipped
			// the queued job to canceled.
			b.m.jobsCanceled.Add(1)
			continue
		}
		if !j.setRunning() {
			b.reg.release(w)
			b.m.jobsCanceled.Add(1)
			continue
		}
		b.m.jobsRunning.Add(1)
		b.cfg.Logger.Info("job dispatched", "job", j.ID, "trace", j.TraceID, "worker", w.name)
		b.wg.Add(1)
		go b.proxyLoop(j, w)
	}
}

// proxyLoop drives one job to a terminal state, re-dispatching across worker
// failures up to the attempt bound. The worker slot passed in is already
// reserved.
func (b *RemoteBackend) proxyLoop(j *Job, w *remoteWorker) {
	defer b.wg.Done()
	defer b.m.jobsRunning.Add(-1)
	dispatched := time.Now()
	for attempt := 1; ; attempt++ {
		state, msg, err := b.runOn(j, w)
		b.reg.release(w)
		if err == nil {
			if state == StateDone {
				b.m.dispatchLatency.observeSince(dispatched)
			}
			b.finishJob(j, state, msg)
			return
		}
		// The dispatch failed below the job level: drop the worker (it
		// re-registers on its next heartbeat if it is actually alive) and try
		// the job elsewhere.
		b.cfg.Logger.Warn("dispatch attempt failed", "job", j.ID, "trace", j.TraceID, "worker", w.name, "attempt", attempt, "err", err)
		b.reg.fail(w)
		if j.canceled() {
			b.finishJob(j, StateCanceled, "")
			return
		}
		if attempt >= b.cfg.JobAttempts {
			b.finishJob(j, StateFailed, fmt.Sprintf("dispatch attempt %d/%d on worker %s: %v", attempt, b.cfg.JobAttempts, w.name, err))
			return
		}
		if w = b.reg.acquire(j.cancel); w == nil {
			b.finishJob(j, StateCanceled, "")
			return
		}
	}
}

func (b *RemoteBackend) finishJob(j *Job, state State, msg string) {
	if state == StateDone {
		lines, trace := j.logs()
		if err := b.cache.put(j.Hash, lines, trace); err != nil {
			b.m.cacheWriteErrors.Add(1)
		}
	}
	j.finish(state, msg)
	switch state {
	case StateDone:
		b.m.jobsDone.Add(1)
		b.cfg.Logger.Info("job done", "job", j.ID, "trace", j.TraceID, "records", j.lineCount())
	case StateFailed:
		b.m.jobsFailed.Add(1)
		b.cfg.Logger.Error("job failed", "job", j.ID, "trace", j.TraceID, "cause", msg)
	case StateCanceled:
		b.m.jobsCanceled.Add(1)
		b.cfg.Logger.Info("job canceled", "job", j.ID, "trace", j.TraceID)
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
	wm := b.m.worker(w.name)
	wm.jobs.Add(1)

	body, err := json.Marshal(j.Scenario)
	if err != nil {
		return StateFailed, fmt.Sprintf("encoding scenario: %v", err), nil
	}

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

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", "", fmt.Errorf("building submit request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the coordinator's job and trace identity so the whole
	// dispatch — coordinator job, worker job, both trace streams — correlates
	// under one pair of ids in logs and traces.
	req.Header.Set("X-NCC-Job-Id", j.ID)
	req.Header.Set("X-NCC-Trace-Id", j.TraceID)
	b.authorize(req)
	resp, err := b.client.Do(req)
	if err != nil {
		return "", "", fmt.Errorf("submitting: %w", err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		msg := readAPIError(resp.Body)
		resp.Body.Close()
		return "", "", fmt.Errorf("submit: %s: %s", resp.Status, msg)
	}
	var remote struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&remote)
	resp.Body.Close()
	if err != nil {
		return "", "", fmt.Errorf("decoding submit response: %w", err)
	}

	// The remote id is known: propagate a coordinator-side cancel to the
	// worker so its engine aborts within one round, then tear the stream down.
	go func() {
		select {
		case <-j.cancel:
			b.cancelRemote(w.url, remote.ID)
			stopReq()
		case <-attemptDone:
		}
	}()

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/jobs/"+remote.ID+"/records", nil)
	if err != nil {
		return "", "", fmt.Errorf("building stream request: %w", err)
	}
	b.authorize(req)
	stream, err := b.client.Do(req)
	if err != nil {
		return "", "", fmt.Errorf("opening record stream: %w", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("record stream: %s: %s", stream.Status, readAPIError(stream.Body))
	}

	// On a retry the worker replays the full deterministic stream; skip the
	// lines the previous attempt already published so clients see one
	// seamless, byte-identical stream across the failover.
	skip := j.lineCount()
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		j.appendLine(append([]byte(nil), line...))
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
	state, cause, err := b.remoteState(w.url, remote.ID)
	if err != nil {
		if j.canceled() {
			return StateCanceled, "", nil
		}
		return "", "", err
	}
	switch state {
	case StateDone:
		return StateDone, "", nil
	case StateFailed:
		return StateFailed, cause, nil
	case StateCanceled:
		if j.canceled() {
			return StateCanceled, "", nil
		}
		// The worker canceled unilaterally (draining): run elsewhere.
		return "", "", fmt.Errorf("worker canceled the job")
	default:
		return "", "", fmt.Errorf("stream ended with worker job %s still %s", remote.ID, state)
	}
}

// fetchTrace proxies the worker job's telemetry trace into j's trace log,
// byte-for-byte. The trace is deterministic, so a retry after a worker
// failure replays an identical stream and the proxy skips the prefix it
// already published — the same seamless-failover contract as the record
// stream. The worker job is terminal when this runs (its record stream hit
// clean EOF), so the trace stream is complete and EOF-bounded.
func (b *RemoteBackend) fetchTrace(ctx context.Context, j *Job, w *remoteWorker, remoteID string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/jobs/"+remoteID+"/trace", nil)
	if err != nil {
		return fmt.Errorf("building trace request: %w", err)
	}
	req.Header.Set("X-NCC-Job-Id", j.ID)
	req.Header.Set("X-NCC-Trace-Id", j.TraceID)
	b.authorize(req)
	resp, err := b.client.Do(req)
	if err != nil {
		return fmt.Errorf("opening trace stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace stream: %s: %s", resp.Status, readAPIError(resp.Body))
	}
	skip := j.traceCount()
	var batch [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		batch = append(batch, append([]byte(nil), line...))
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace stream: %w", err)
	}
	j.appendTraceLines(batch)
	b.m.traceLinesProduced.Add(int64(len(batch)))
	return nil
}

// cancelRemote best-effort cancels a job on a worker.
func (b *RemoteBackend) cancelRemote(base, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	b.authorize(req)
	if resp, err := b.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// remoteState fetches a worker job's state after its stream ended.
func (b *RemoteBackend) remoteState(base, id string) (State, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", "", err
	}
	b.authorize(req)
	resp, err := b.client.Do(req)
	if err != nil {
		return "", "", fmt.Errorf("fetching job state: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("job state: %s: %s", resp.Status, readAPIError(resp.Body))
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", "", fmt.Errorf("decoding job state: %w", err)
	}
	return info.State, info.Error, nil
}

// readAPIError extracts the {"error": ...} payload of a failed API call.
func readAPIError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}

// Drain stops the dispatcher after the already-queued jobs finish. If ctx
// expires first, cancelAll cancels every live job — proxies propagate the
// cancels to their workers — and Drain waits for the short tail.
func (b *RemoteBackend) Drain(ctx context.Context, cancelAll func()) error {
	close(b.queue)
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		cancelAll()
		<-done
		err = ctx.Err()
	}
	close(b.stopScan)
	return err
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
