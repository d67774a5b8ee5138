package service

import (
	"net/http"
	"sync/atomic"
)

// newline ends every NDJSON line; shared so writing it to an io.Writer
// allocates nothing.
var newline = []byte{'\n'}

// serveLog streams one of j's logs to one client: every line published so
// far, then live lines as they arrive, until the job is terminal and the log
// drained or the client goes away. Every consumer of a log — live, late,
// cached, proxied — reads the same bytes. A record line is the exact bytes
// `nccrun -json` would print for the scenario the job *executed*; a cache hit
// or coalesced submission replays the original submission's stream verbatim,
// so a semantically identical re-spelling sees the first submission's record
// echoes (display name, workers, sweep-axis order).
func serveLog(w http.ResponseWriter, r *http.Request, j *Job, log logID, streamed *atomic.Int64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		lines, terminal, changed := j.next(log, sent)
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
