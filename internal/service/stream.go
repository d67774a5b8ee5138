package service

import (
	"bytes"
	"errors"
	"io"
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
// echoes (display name, workers, sweep-axis order). A trace held in the blob
// store is streamed from its blob, checked as it goes: a blob that no longer
// matches its hash aborts the response, so the client reads an error instead
// of a clean end, and drops the job's entry from c's memory tier, so the
// next submission of the scenario re-executes and repairs the blob.
func serveLog(w http.ResponseWriter, r *http.Request, j *Job, log logID, streamed *atomic.Int64, c *cache) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		lines, stored, terminal, changed := j.next(log, sent)
		if stored.ok() {
			damaged, err := serveBlob(w, stored)
			if damaged {
				c.drop(j.Hash, stored.hash)
			}
			if err != nil {
				// The status line is already out, so the abort is
				// net/http's: panicking with ErrAbortHandler closes the
				// connection without ending the body.
				panic(http.ErrAbortHandler)
			}
			streamed.Add(int64(stored.lines))
			return
		}
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

// serveBlob streams a stored log to w. It fails when the blob cannot be
// read through or no longer matches its hash, which it reports as damaged,
// or when a write to w fails (the client went away), which it does not.
func serveBlob(w io.Writer, ref blobRef) (damaged bool, err error) {
	rd, err := ref.store.Stream(ref.hash)
	if err != nil {
		return true, err
	}
	defer rd.Close()
	dst := &writeErr{w: w}
	_, err = rd.WriteTo(dst)
	return err != nil && dst.err == nil, err
}

// writeErr passes writes on to w and keeps the error of a failed one, so a
// copy's caller can tell a failed destination from a failed source.
type writeErr struct {
	w   io.Writer
	err error
}

func (e *writeErr) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// linesReader reads NDJSON lines as one stream, a newline after each line,
// without joining them into one buffer. WriteTo hands the lines to the
// destination one by one, so blob.Put copies them into its pooled buffer.
type linesReader struct {
	lines [][]byte
	off   int // bytes of lines[0] already read; len(lines[0]) leaves its newline
}

func (r *linesReader) Read(p []byte) (n int, err error) {
	for n < len(p) && len(r.lines) > 0 {
		if ln := r.lines[0]; r.off < len(ln) {
			c := copy(p[n:], ln[r.off:])
			n += c
			r.off += c
			continue
		}
		p[n] = '\n'
		n++
		r.lines, r.off = r.lines[1:], 0
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (r *linesReader) WriteTo(w io.Writer) (n int64, err error) {
	for ; len(r.lines) > 0; r.lines, r.off = r.lines[1:], 0 {
		m, err := w.Write(r.lines[0][r.off:])
		n += int64(m)
		if err == nil {
			m, err = w.Write(newline)
			n += int64(m)
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// errNotCanonical rejects an NDJSON stream that holds a blank line or ends
// without a newline: its bytes are not the join of its lines.
var errNotCanonical = errors.New("NDJSON stream is not canonical (a blank line, or no newline at its end)")

// lineCounter counts the lines of an NDJSON stream written to it and notes
// whether the stream is canonical: every line has a non-space byte, and the
// last ends with a newline.
type lineCounter struct {
	lines   int
	blank   bool // a line held only whitespace
	open    bool // bytes after the last newline
	content bool // the open line has a non-space byte
}

func (c *lineCounter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		seg, rest, found := bytes.Cut(p, newline)
		if !c.content && len(bytes.TrimSpace(seg)) > 0 {
			c.content = true
		}
		if !found {
			c.open = true
			break
		}
		if !c.content {
			c.blank = true
		}
		c.lines++
		c.open, c.content = false, false
		p = rest
	}
	return n, nil
}

func (c *lineCounter) canonical() bool { return !c.blank && !c.open }
