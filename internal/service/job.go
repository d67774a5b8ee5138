package service

import (
	"sync"
	"time"

	"ncc/internal/scenario"
)

// State is a job's lifecycle position. Transitions are linear:
// queued -> running -> done, with canceled reachable from queued and running
// and failed reachable from running (only for internal encoding errors — a
// run that errors produces a Record with its Error field set, like a local
// sweep, and the job still completes).
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobInfo is the JSON view of a job returned by the listing and status
// endpoints and by POST /v1/jobs.
type JobInfo struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	Hash      string    `json:"hash"`
	State     State     `json:"state"`
	Cached    bool      `json:"cached"`
	Records   int       `json:"records"`
	TraceID   string    `json:"traceId,omitempty"`
	Trace     int       `json:"trace,omitempty"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
}

// Job is one submitted scenario execution. Results accumulate as
// pre-marshaled NDJSON lines so every consumer — live streams, late streams,
// the result cache — serves byte-identical records without re-encoding.
type Job struct {
	ID        string
	Hash      string
	Scenario  scenario.Scenario
	Submitted time.Time

	// TraceID names the job's telemetry trace in logs and cross-node
	// headers. It is derived from the scenario hash, so a coalesced or
	// re-dispatched job carries the same trace identity everywhere.
	TraceID string

	// cancel is closed (once) to abort the job; the scheduler threads it
	// into the engine's abort path, so an in-flight run unwinds within one
	// round barrier.
	cancel     chan struct{}
	cancelOnce sync.Once

	mu      sync.Mutex
	state   State
	cached  bool
	err     string
	lines   [][]byte      // one marshaled Record per line, no trailing newline
	trace   [][]byte      // NDJSON trace lines (internal/obs format), same convention
	changed chan struct{} // closed and replaced on every mutation
}

func newJob(id, hash string, sc scenario.Scenario) *Job {
	return &Job{
		ID:        id,
		Hash:      hash,
		Scenario:  sc,
		Submitted: time.Now().UTC(),
		TraceID:   traceID(hash),
		cancel:    make(chan struct{}),
		state:     StateQueued,
		changed:   make(chan struct{}),
	}
}

// traceID derives the trace identity from the scenario hash, so every
// execution of the same scenario — coalesced, re-dispatched, cached — logs
// under the same trace id.
func traceID(hash string) string {
	if len(hash) > 12 {
		hash = hash[:12]
	}
	return "tr-" + hash
}

// notifyLocked wakes every waiting stream. Callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// Cancel requests the job's abortion. A queued job flips to canceled
// immediately (the scheduler skips it on dequeue); a running job unwinds
// through the engine's abort path. Terminal jobs are unaffected.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.notifyLocked()
	}
}

// canceled reports whether cancellation has been requested.
func (j *Job) canceled() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

// setRunning transitions queued -> running; it fails when the job was
// canceled while queued.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.notifyLocked()
	return true
}

// appendLine publishes one completed record to every stream.
func (j *Job) appendLine(line []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lines = append(j.lines, line)
	j.notifyLocked()
}

// lineCount reports how many record lines have been published. The cluster
// proxy uses it as the replay offset when a job is re-dispatched after a
// worker failure: the retry's stream skips this many lines (deterministic
// execution makes them identical) so clients see one seamless byte stream.
func (j *Job) lineCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.lines)
}

// appendTraceLines publishes completed trace segments to every trace stream.
// Traces arrive run-at-a-time (a sealed collector segment locally, a proxied
// worker trace in the cluster), so a batched append keeps wakeups cheap.
func (j *Job) appendTraceLines(lines [][]byte) {
	if len(lines) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.trace = append(j.trace, lines...)
	j.notifyLocked()
}

// traceCount mirrors lineCount for the trace log: the cluster proxy's replay
// offset when a job is re-dispatched.
func (j *Job) traceCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.trace)
}

// finish moves the job to a terminal state. The queued->canceled transition
// in Cancel may have beaten a racing finish; terminal states never change.
func (j *Job) finish(state State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = state
	j.err = errMsg
	j.notifyLocked()
}

// completeFromCache marks a job done with a cached result stream. It reports
// false on a job already terminal — a dispatch-time hit must not resurrect a
// job canceled while queued.
func (j *Job) completeFromCache(lines, trace [][]byte) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.lines = lines
	j.trace = trace
	j.cached = true
	j.state = StateDone
	j.notifyLocked()
	return true
}

// next returns the record lines from index from on, whether the job is
// terminal, and a channel that closes on the next mutation. A streaming
// consumer loops: emit lines, advance, and — when not terminal — wait on
// changed (or its own client context). The returned slice aliases the job's
// append-only line log and must not be mutated.
func (j *Job) next(from int) (lines [][]byte, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.lines) {
		lines = j.lines[from:]
	}
	return lines, j.state.terminal(), j.changed
}

// nextTrace is next over the trace log.
func (j *Job) nextTrace(from int) (lines [][]byte, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.trace) {
		lines = j.trace[from:]
	}
	return lines, j.state.terminal(), j.changed
}

// logs returns the record and trace logs as they stand. A backend reads them
// after the job's last run, to fill the cache before finish ends the job's
// stream: a client that resubmits the moment its stream ends must hit the
// cache.
func (j *Job) logs() (lines, trace [][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines, j.trace
}

// resultLines returns the complete record and trace logs of a terminal job
// (nil otherwise) — what the cache stores.
func (j *Job) resultLines() (lines, trace [][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() {
		return nil, nil
	}
	return j.lines, j.trace
}

// Info snapshots the job for the status endpoints.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobInfo{
		ID:        j.ID,
		Name:      j.Scenario.Name,
		Hash:      j.Hash,
		State:     j.state,
		Cached:    j.cached,
		Records:   len(j.lines),
		TraceID:   j.TraceID,
		Trace:     len(j.trace),
		Error:     j.err,
		Submitted: j.Submitted,
	}
}
