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

// logID names one of a job's two NDJSON logs. Each line is stored without
// its trailing newline.
type logID int

const (
	recordLog logID = iota // one marshaled Record per line
	traceLog               // the telemetry trace (internal/obs format)
)

// Job is one submitted scenario execution. Results accumulate as
// pre-marshaled NDJSON lines so every consumer — live streams, late streams,
// the result cache — serves byte-identical records without re-encoding.
type Job struct {
	ID        string
	Hash      string
	Scenario  scenario.Scenario
	Submitted time.Time

	// TraceID names the job's telemetry trace in logs and in the trace
	// route's response headers. It is derived from the scenario hash, so a
	// coalesced, re-dispatched or proxied job carries the same trace
	// identity on the coordinator and on its worker.
	TraceID string

	// cancel is closed (once) to abort the job; the local backend threads
	// it into the engine's abort path, so an in-flight run unwinds within
	// one round.
	cancel     chan struct{}
	cancelOnce sync.Once

	mu      sync.Mutex
	state   State
	cached  bool
	err     string
	log     [2][][]byte   // indexed by logID
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
// immediately (the dispatcher skips it); a running job unwinds through the
// engine's abort path. Terminal jobs are unaffected.
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

// append publishes completed lines of one log to every stream of it. The
// local backend appends a record at a time and a run's trace at once; the
// cluster proxy appends each proxied record and a worker's whole trace.
func (j *Job) append(log logID, lines ...[]byte) {
	if len(lines) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.log[log] = append(j.log[log], lines...)
	j.notifyLocked()
}

// count reports how many lines of one log have been published. The cluster
// proxy uses it as the replay offset when a job is re-dispatched after a
// worker failure: the retry's stream skips this many lines (deterministic
// execution makes them identical) so clients see one seamless byte stream.
func (j *Job) count(log logID) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.log[log])
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
	j.log = [2][][]byte{lines, trace}
	j.cached = true
	j.state = StateDone
	j.notifyLocked()
	return true
}

// next returns one log's lines from index from on, whether the job is
// terminal, and a channel that closes on the next mutation. A streaming
// consumer loops: emit lines, advance, and — when not terminal — wait on
// changed (or its own client context). The returned slice aliases the job's
// append-only log and must not be mutated.
func (j *Job) next(log logID, from int) (lines [][]byte, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.log[log]) {
		lines = j.log[log][from:]
	}
	return lines, j.state.terminal(), j.changed
}

// logs returns the record and trace logs as they stand. They are complete
// once the backend has returned from running the job, which is when the
// pipeline's finish reads them to fill the cache.
func (j *Job) logs() (lines, trace [][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log[recordLog], j.log[traceLog]
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
		Records:   len(j.log[recordLog]),
		TraceID:   j.TraceID,
		Trace:     len(j.log[traceLog]),
		Error:     j.err,
		Submitted: j.Submitted,
	}
}
