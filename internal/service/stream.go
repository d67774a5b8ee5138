package service

import (
	"net/http"
	"sync/atomic"
)

// StreamHub fans a job's NDJSON logs out to any number of HTTP streaming
// clients. It is purely a consumer of the Job abstraction — lines land in the
// logs via ExecBackend (executed locally or proxied from a cluster worker)
// and the hub replays them byte-identically: everything produced so far, then
// live lines as they arrive, terminating when the job reaches a terminal
// state or the client goes away. Records and traces are two logs on the same
// job, served by the same loop.
type StreamHub struct {
	m *metrics
}

func newStreamHub(m *metrics) *StreamHub {
	return &StreamHub{m: m}
}

// Serve streams j's records to one client. Each line is the exact bytes
// `nccrun -json` would print for the scenario the job *executed*; a cache hit
// or coalesced submission replays the original submission's stream verbatim,
// so a semantically identical re-spelling sees the first submission's record
// echoes (display name, workers, sweep-axis order).
func (h *StreamHub) Serve(w http.ResponseWriter, r *http.Request, j *Job) {
	h.serve(w, r, j.next, &h.m.recordsStreamed)
}

// ServeTrace streams j's telemetry trace (internal/obs NDJSON). The same
// byte-identity guarantee applies: the trace is deterministic, so every
// consumer — live, late, cached, proxied — reads the same stream.
func (h *StreamHub) ServeTrace(w http.ResponseWriter, r *http.Request, j *Job) {
	h.serve(w, r, j.nextTrace, &h.m.traceLinesStreamed)
}

// newline ends every NDJSON line; shared so writing it to an io.Writer
// allocates nothing.
var newline = []byte{'\n'}

func (h *StreamHub) serve(w http.ResponseWriter, r *http.Request,
	next func(int) ([][]byte, bool, <-chan struct{}), streamed *atomic.Int64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		lines, terminal, changed := next(sent)
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return
			}
			if _, err := w.Write(newline); err != nil {
				return
			}
			streamed.Add(1)
		}
		sent += len(lines)
		if terminal && len(lines) == 0 {
			return
		}
		if terminal {
			continue // drain any lines appended after the terminal flip
		}
		// Flush before every wait, the first included: a client sees the
		// headers at once even when the job's first line is minutes away (a
		// queued job, a slow first run), and every line while the job runs.
		// A finished job's replay goes out in one write when serve returns.
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
