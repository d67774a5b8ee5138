package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"ncc/internal/graphio"
	"ncc/internal/scenario"
	"ncc/internal/service"
)

// runRemote submits the scenario to an nccd daemon and tails the job's
// record stream instead of executing locally. In -json mode the NDJSON lines
// are passed through verbatim, so remote output is byte-identical to a local
// `nccrun -json` run of the same scenario. Exit codes match local execution:
// 0 ok, 1 run/verification failure, 2 usage (the server rejected the
// scenario). A signal on sigs cancels the remote job (DELETE /v1/jobs/{id})
// before tearing down the stream, so an interrupted client doesn't leave the
// daemon running an orphaned sweep. With traceFile set, the job's canonical
// telemetry trace (GET /v1/jobs/{id}/trace) is fetched after the run
// completes — it is byte-identical to what a local -trace run would write.
func runRemote(base, token string, s scenario.Scenario, jsonOut bool, expanded int, traceFile string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	cl := service.NewClient(base, token)
	if s.Graph.File != "" {
		// File-family scenario: make sure the daemon can materialize the
		// graph before the job reaches an executor. Upload is idempotent; a
		// failure is only a warning because the daemon (or its workers) may
		// already hold the graph.
		if err := pushGraph(cl, s.Graph.File); err != nil {
			fmt.Fprintf(stderr, "warning: uploading graph %s: %v\n", s.Graph.File, err)
		}
	}
	// The answer is a new job, or an identical in-flight job it coalesced
	// onto, whose stream delivers exactly the records this submission would
	// produce.
	info, err := cl.SubmitJob(context.Background(), s)
	if err != nil {
		var rejected *service.APIError
		if !errors.As(err, &rejected) {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		fmt.Fprintf(stderr, "%s rejected the scenario (%s): %s\n", base, rejected.Status, rejected.Msg)
		if rejected.Code == http.StatusBadRequest {
			return 2
		}
		return 1
	}
	if info.Cached && !jsonOut {
		fmt.Fprintf(stdout, "job %s: served from result cache\n", info.ID)
	}

	// Interrupts cancel the remote job first, then the local stream: the
	// daemon stops burning engine workers on a sweep nobody is tailing.
	ctx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	var interrupted atomic.Bool
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-sigs:
			interrupted.Store(true)
			// Best-effort: the job is canceled so the daemon does not
			// finish a sweep with no audience.
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			cl.CancelJob(cctx, info.ID)
			cancel()
			stopStream()
		case <-watcherDone:
		}
	}()

	stream, err := cl.Records(ctx, info.ID)
	if err != nil {
		if interrupted.Load() {
			fmt.Fprintf(stderr, "interrupted: remote job %s canceled\n", info.ID)
			return 1
		}
		fmt.Fprintln(stderr, "error: record stream:", err)
		return 1
	}
	defer stream.Close()

	code := 0
	sc := bufio.NewScanner(stream)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec scenario.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			fmt.Fprintln(stderr, "error: decoding record:", err)
			return 1
		}
		if jsonOut {
			stdout.Write(line)
			io.WriteString(stdout, "\n")
		} else if expanded == 1 {
			printSingle(stdout, rec)
		} else {
			printSweepLine(stdout, rec)
		}
		switch {
		case rec.Error != "":
			fmt.Fprintln(stderr, "error:", rec.Error)
			code = 1
		case degradedOK(rec):
			// Fault-injected run that degraded as designed: not a failure.
		case !rec.Verified:
			fmt.Fprintln(stderr, "verification failed:", rec.VerifyErr)
			code = 1
		}
	}
	if interrupted.Load() {
		fmt.Fprintf(stderr, "interrupted: remote job %s canceled; records above are partial\n", info.ID)
		return 1
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "error: reading record stream:", err)
		return 1
	}
	// The stream also terminates when the job is canceled (another client,
	// or the daemon draining) or fails server-side; a truncated sweep must
	// not look like success, so check the job's terminal state.
	if end, err := cl.Job(context.Background(), info.ID); err != nil {
		fmt.Fprintln(stderr, "error: checking job state:", err)
		return 1
	} else if end.State != service.StateDone {
		cause := ""
		if end.Error != "" {
			cause = ": " + end.Error
		}
		fmt.Fprintf(stderr, "error: job %s ended %s%s; records above are partial\n", info.ID, end.State, cause)
		return 1
	}
	if traceFile != "" {
		if err := fetchTrace(cl, info.ID, traceFile); err != nil {
			fmt.Fprintln(stderr, "error: fetching trace:", err)
			return 1
		}
		if !jsonOut {
			fmt.Fprintf(stdout, "trace: written to %s\n", traceFile)
		}
	}
	return code
}

// fetchTrace downloads a completed job's telemetry trace stream to path.
func fetchTrace(cl service.Client, id, path string) error {
	rc, err := cl.Trace(context.Background(), id)
	if err != nil {
		return err
	}
	defer rc.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, rc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pushGraph uploads a locally stored graph to the daemon's /v1/graphs route.
// A graph missing from the local store is not an error — the reference may
// name a graph only the daemon holds.
func pushGraph(cl service.Client, hash string) error {
	st, err := graphio.ActiveStore()
	if err != nil {
		return err
	}
	if !st.Has(hash) {
		return nil
	}
	f, err := os.Open(st.Path(hash))
	if err != nil {
		return err
	}
	defer f.Close()
	return cl.PutGraph(context.Background(), hash, f)
}
